//! One layout declaration per wire type.
//!
//! Every type that appears inside a message implements the crate-private
//! [`Wire`] trait exactly once: `put` writes it, `get` reads it back, and
//! `tags` names every [`TagId`] it will reference so the message's
//! [`TagTable`] can be built before the first byte is written. The three
//! walks cannot drift apart, because for a struct all three are generated
//! from one field list ([`wire_struct!`]), and for everything else they are
//! a few lines over the shared pieces below:
//!
//! * leaves — varint integers (range-checked once, in [`narrow`]), [`Epoch`],
//!   [`TagId`] / `Option<TagId>` (resolved through [`TagRefs`]), raw-bits
//!   `f64`, flag-byte `bool`, `String` and byte strings;
//! * containers — counted `Vec<T>`, tag-keyed `BTreeMap` (a repeated key is
//!   `Malformed`, for every keyed section alike), [`Flag`]-shaped `Option<T>`,
//!   [`Delta`]-shaped epoch runs, and fixed counter blocks ([`counters!`]).
//!
//! A field whose type has more than one encoding picks one with `as Shape`
//! in the field list; everything else is [`Plain`].

use crate::primitives::{Reader, TagTable, Writer};
use crate::WireError;
use rfid_types::{Epoch, LocationId, RawReading, ReaderId, TagId};
use std::collections::BTreeMap;

/// The default shape: the one encoding a type has, or its most common one.
pub(crate) struct Plain;
/// `Option<T>` as a flag byte followed by the value.
pub(crate) struct Flag;
/// Epoch-bearing sequences as a count and zigzag deltas between consecutive
/// epochs (sorted runs — the common case — cost one byte per epoch; unsorted
/// ones still round-trip).
pub(crate) struct Delta;

/// How the message being written or read refers to tags.
#[derive(Clone, Copy)]
pub(crate) enum TagRefs<'a> {
    /// No table: every reference is the raw id.
    Raw,
    /// Every reference is an index into the message's sorted table.
    Table(&'a TagTable),
    /// The message is about one tag the receiver already knows; references
    /// to it take no bytes (the tag-less query-state payload).
    Implied(TagId),
}

impl TagRefs<'_> {
    fn index_of(self, tag: TagId) -> u64 {
        match self {
            TagRefs::Raw => tag.raw(),
            TagRefs::Table(table) => table.index_of(tag),
            TagRefs::Implied(_) => 0,
        }
    }

    fn tag_at(self, index: u64) -> Result<TagId, WireError> {
        match self {
            TagRefs::Raw => Ok(TagId::from_raw(index)),
            TagRefs::Table(table) => table.tag_at(index),
            TagRefs::Implied(tag) => Ok(tag),
        }
    }
}

/// The layout of one type in one shape: its encoder, its decoder and the
/// tags it references, declared together.
pub(crate) trait Wire<Shape = Plain>: Sized {
    /// Append the encoding of `self`.
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>);
    /// Read back what [`Self::put`] wrote. Never panics: hostile bytes are a
    /// typed [`WireError`].
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError>;
    /// Push every tag [`Self::put`] will reference.
    fn tags(&self, _out: &mut Vec<TagId>) {}
}

/// The table over every tag `value` references.
pub(crate) fn table_of<S>(value: &impl Wire<S>) -> TagTable {
    let mut tags = Vec::new();
    value.tags(&mut tags);
    TagTable::from_tags(tags)
}

// ---------------------------------------------------------------------------
// leaves

/// The one range check: a decoded integer that must fit a narrower type.
pub(crate) fn narrow<S, T: TryFrom<S>>(raw: S, what: &str) -> Result<T, WireError> {
    T::try_from(raw).map_err(|_| WireError::new(format!("{what} out of range")))
}

/// The table-free leaves: one `Writer` call out, one fallible expression back.
macro_rules! leaves {
    ($($ty:ty: |$v:ident, $w:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, $w: &mut Writer, _: TagRefs<'_>) {
                let $v = self;
                $put
            }
            fn get($r: &mut Reader<'_>, _: TagRefs<'_>) -> Result<Self, WireError> {
                $get
            }
        }
    )*};
}
leaves! {
    u64: |v, w| w.put_varint(*v), |r| r.get_varint();
    u32: |v, w| w.put_varint(u64::from(*v)), |r| narrow(r.get_varint()?, "u32");
    u16: |v, w| w.put_varint(u64::from(*v)), |r| narrow(r.get_varint()?, "u16");
    usize: |v, w| w.put_varint(*v as u64), |r| narrow(r.get_varint()?, "length");
    Epoch: |v, w| w.put_varint(u64::from(v.0)), |r| narrow(r.get_varint()?, "epoch").map(Epoch);
    LocationId: |v, w| v.0.put(w, TagRefs::Raw), |r| u16::get(r, TagRefs::Raw).map(LocationId);
    ReaderId: |v, w| v.0.put(w, TagRefs::Raw), |r| u16::get(r, TagRefs::Raw).map(ReaderId);
    f64: |v, w| w.put_f64(*v), |r| r.get_f64();
    bool: |v, w| w.put_u8(u8::from(*v)), |r| match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::new("flag byte is neither 0 nor 1")),
    };
    Vec<u8>: |v, w| w.put_bytes(v), |r| r.get_bytes();
    String: |v, w| w.put_bytes(v.as_bytes()), |r| String::from_utf8(r.get_bytes()?)
        .map_err(|_| WireError::new("string is not valid UTF-8"));
}

impl Wire for TagId {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        if !matches!(refs, TagRefs::Implied(_)) {
            w.put_varint(refs.index_of(*self));
        }
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        match refs {
            TagRefs::Implied(tag) => Ok(tag),
            _ => refs.tag_at(r.get_varint()?),
        }
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        out.push(*self);
    }
}

/// Optional tag reference: `0` for `None`, `1 + reference` otherwise.
impl Wire for Option<TagId> {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        w.put_varint(self.map_or(0, |tag| 1 + refs.index_of(tag)));
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        match r.get_varint()? {
            0 => Ok(None),
            n => refs.tag_at(n - 1).map(Some),
        }
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        out.extend(*self);
    }
}

// ---------------------------------------------------------------------------
// containers

/// Elements reserved up front on a length prefix's word; past this a vector
/// grows as elements actually decode, so a ten-byte message cannot reserve
/// gigabytes.
const PREALLOC_CAP: usize = 1 << 16;

/// A counted sequence: the length, then each element.
pub(crate) fn put_seq<T: Wire>(items: &[T], w: &mut Writer, refs: TagRefs<'_>) {
    items.len().put(w, refs);
    for item in items {
        item.put(w, refs);
    }
}

/// Read a length prefix, then `count` elements through `next`.
pub(crate) fn get_counted<T>(
    r: &mut Reader<'_>,
    mut next: impl FnMut(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let count = usize::get(r, TagRefs::Raw)?;
    let mut out = Vec::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        out.push(next(r)?);
    }
    Ok(out)
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        put_seq(self, w, refs);
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        get_counted(r, |r| T::get(r, refs))
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        self.iter().for_each(|item| item.tags(out));
    }
}

impl<T: Wire> Wire<Flag> for Option<T> {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        self.is_some().put(w, refs);
        if let Some(value) = self {
            value.put(w, refs);
        }
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        bool::get(r, refs)?.then(|| T::get(r, refs)).transpose()
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        self.iter().for_each(|value| value.tags(out));
    }
}

/// A tag-keyed section: the entry count, then per entry the key's tag
/// reference and the value.
pub(crate) fn put_keyed<V>(
    w: &mut Writer,
    refs: TagRefs<'_>,
    len: usize,
    entries: impl Iterator<Item = (TagId, V)>,
    mut put_value: impl FnMut(V, &mut Writer),
) {
    len.put(w, refs);
    for (key, value) in entries {
        key.put(w, refs);
        put_value(value, w);
    }
}

/// Read a [`put_keyed`] section. A key that appears twice is `Malformed`: a
/// section that declares N entries yields N or nothing.
pub(crate) fn get_keyed<V>(
    r: &mut Reader<'_>,
    refs: TagRefs<'_>,
    mut get_value: impl FnMut(&mut Reader<'_>) -> Result<V, WireError>,
) -> Result<BTreeMap<TagId, V>, WireError> {
    let mut map = BTreeMap::new();
    for _ in 0..usize::get(r, refs)? {
        if map.insert(TagId::get(r, refs)?, get_value(r)?).is_some() {
            return Err(WireError::new("duplicate key in a tag-keyed section"));
        }
    }
    Ok(map)
}

impl<S, V: Wire<S>> Wire<S> for BTreeMap<TagId, V> {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        let entries = self.iter().map(|(key, value)| (*key, value));
        put_keyed(w, refs, self.len(), entries, |value, w| value.put(w, refs));
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        get_keyed(r, refs, |r| V::get(r, refs))
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        for (key, value) in self {
            out.push(*key);
            value.tags(out);
        }
    }
}

/// Running state of one zigzag epoch-delta chain.
pub(crate) struct DeltaCursor(i64);

impl DeltaCursor {
    /// A chain whose first delta is taken against `base`.
    pub(crate) fn from(base: Epoch) -> DeltaCursor {
        DeltaCursor(i64::from(base.0))
    }

    pub(crate) fn put(&mut self, epoch: Epoch, w: &mut Writer) {
        let raw = i64::from(epoch.0);
        w.put_zigzag(raw - self.0);
        self.0 = raw;
    }

    /// The next epoch. Each delta can be in range while the running sum is
    /// not (an abort under `overflow-checks`, a silent wrap without), so the
    /// sum is checked and the result range-checked like any other epoch.
    pub(crate) fn get(&mut self, r: &mut Reader<'_>) -> Result<Epoch, WireError> {
        self.0 = (self.0)
            .checked_add(r.get_zigzag()?)
            .ok_or_else(|| WireError::length_overflow("epoch delta"))?;
        narrow(self.0, "epoch").map(Epoch)
    }
}

/// A [`Delta`] run: the count, then per item its epoch delta and the rest.
pub(crate) fn put_run<X>(
    w: &mut Writer,
    base: Epoch,
    len: usize,
    items: impl Iterator<Item = (Epoch, X)>,
    mut put_rest: impl FnMut(X, &mut Writer),
) {
    len.put(w, TagRefs::Raw);
    let mut cursor = DeltaCursor::from(base);
    for (epoch, rest) in items {
        cursor.put(epoch, w);
        put_rest(rest, w);
    }
}

/// Read a [`put_run`] run.
pub(crate) fn get_run<X>(
    r: &mut Reader<'_>,
    base: Epoch,
    mut get_rest: impl FnMut(&mut Reader<'_>) -> Result<X, WireError>,
) -> Result<Vec<(Epoch, X)>, WireError> {
    let mut cursor = DeltaCursor::from(base);
    get_counted(r, |r| Ok((cursor.get(r)?, get_rest(r)?)))
}

impl<X: Wire> Wire<Delta> for Vec<(Epoch, X)> {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        let items = self.iter().map(|(epoch, rest)| (*epoch, rest));
        put_run(w, Epoch(0), self.len(), items, |rest, w| rest.put(w, refs));
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        get_run(r, Epoch(0), |r| X::get(r, refs))
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        self.iter().for_each(|(_, rest)| rest.tags(out));
    }
}

/// A bare epoch run: a [`put_run`] whose items carry nothing else.
impl Wire<Delta> for Vec<Epoch> {
    fn put(&self, w: &mut Writer, _: TagRefs<'_>) {
        put_run(
            w,
            Epoch(0),
            self.len(),
            self.iter().map(|e| (*e, ())),
            |(), _| {},
        );
    }
    fn get(r: &mut Reader<'_>, _: TagRefs<'_>) -> Result<Self, WireError> {
        let mut cursor = DeltaCursor::from(Epoch(0));
        get_counted(r, |r| cursor.get(r))
    }
}

/// Order-preserving reading sequence: per reading its tag reference, the
/// epoch delta against the previous reading, and the reader id. Time-sorted
/// runs cost one byte of delta per reading; tag-grouped exports pay one
/// longer (negative) delta per group boundary.
pub(crate) fn put_readings(readings: &[RawReading], w: &mut Writer, refs: TagRefs<'_>) {
    readings.len().put(w, refs);
    let mut cursor = DeltaCursor::from(Epoch(0));
    for reading in readings {
        reading.tag.put(w, refs);
        cursor.put(reading.time, w);
        reading.reader.put(w, refs);
    }
}

impl Wire<Delta> for Vec<RawReading> {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        put_readings(self, w, refs);
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let mut cursor = DeltaCursor::from(Epoch(0));
        get_counted(r, |r| {
            let tag = TagId::get(r, refs)?;
            let time = cursor.get(r)?;
            Ok(RawReading::new(time, tag, ReaderId::get(r, refs)?))
        })
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        out.extend(self.iter().map(|reading| reading.tag));
    }
}

// ---------------------------------------------------------------------------
// counter blocks

/// A struct's additive `u64` counters, in wire order — the single list its
/// encoding, decoding and `merge` are all derived from ([`counters!`]).
pub(crate) trait Counters {
    fn counters(&self) -> impl Iterator<Item = u64>;
    fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64>;

    /// Add every counter of `other` into `self`.
    fn add_counters(&mut self, other: &Self) {
        for (mine, theirs) in self.counters_mut().zip(other.counters()) {
            *mine += theirs;
        }
    }

    /// Each counter, in order.
    fn put_counters(&self, w: &mut Writer) {
        self.counters().for_each(|counter| w.put_varint(counter));
    }

    /// Overwrite every counter with the decoded one.
    fn get_counters(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        for slot in self.counters_mut() {
            *slot = r.get_varint()?;
        }
        Ok(())
    }
}

/// A counter row (a per-kind comm array): each counter, in order.
impl<const N: usize> Wire for [u64; N] {
    fn put(&self, w: &mut Writer, _: TagRefs<'_>) {
        self.iter().for_each(|counter| w.put_varint(*counter));
    }
    fn get(r: &mut Reader<'_>, _: TagRefs<'_>) -> Result<Self, WireError> {
        let mut row = [0; N];
        for slot in &mut row {
            *slot = r.get_varint()?;
        }
        Ok(row)
    }
}

/// Declare the counter block of a struct: optional `(head)` fields encoded
/// plainly, then exactly the `{counters}`, in order. Generates [`Counters`]
/// and [`Wire`].
macro_rules! counters {
    ($ty:ident $(($($head:ident),*))? : $($counter:ident),*) => {
        impl $crate::layout::Counters for $ty {
            fn counters(&self) -> impl Iterator<Item = u64> {
                [$(self.$counter),*].into_iter()
            }
            fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$counter),*].into_iter()
            }
        }
        impl $crate::layout::Wire for $ty {
            fn put(&self, w: &mut Writer, _refs: TagRefs<'_>) {
                $($(self.$head.put(w, _refs);)*)?
                self.put_counters(w);
            }
            fn get(r: &mut Reader<'_>, _refs: TagRefs<'_>) -> Result<Self, WireError> {
                let mut out = Self {
                    $($($head: Wire::get(r, _refs)?,)*)?
                    ..Default::default()
                };
                out.get_counters(r)?;
                Ok(out)
            }
        }
    };
}
pub(crate) use counters;

// ---------------------------------------------------------------------------
// field lists

#[rustfmt::skip]
macro_rules! shape { () => { $crate::layout::Plain }; ($shape:ident) => { $crate::layout::$shape }; }
pub(crate) use shape;

/// Declare the wire layout of a struct as its field list, in wire order.
/// `field as Shape` picks a non-[`Plain`] encoding. Fields after a `;` sit
/// behind the message's own [`TagTable`]: such a type collects its tags,
/// writes the table where the `;` stands and indexes it from there on,
/// whatever its caller passed.
macro_rules! wire_struct {
    ($ty:ident:
        $($f:ident $(as $s:ident)?),*
        $(; $($bf:ident $(as $bs:ident)?),*)?
    ) => {
        impl $crate::layout::Wire for $ty {
            #[allow(unused_variables)]
            fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
                $(Wire::<$crate::layout::shape!($($s)?)>::put(&self.$f, w, refs);)*
                $(
                    let table = $crate::layout::table_of(self);
                    table.encode(w);
                    let refs = TagRefs::Table(&table);
                    $(Wire::<$crate::layout::shape!($($bs)?)>::put(&self.$bf, w, refs);)*
                )?
            }
            #[allow(unused_variables)]
            fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
                $(let $f = Wire::<$crate::layout::shape!($($s)?)>::get(r, refs)?;)*
                $(
                    let table = TagTable::decode(r)?;
                    let refs = TagRefs::Table(&table);
                    $(let $bf = Wire::<$crate::layout::shape!($($bs)?)>::get(r, refs)?;)*
                )?
                Ok($ty { $($f,)* $($($bf,)*)? })
            }
            fn tags(&self, out: &mut Vec<TagId>) {
                $(Wire::<$crate::layout::shape!($($s)?)>::tags(&self.$f, out);)*
                $($(Wire::<$crate::layout::shape!($($bs)?)>::tags(&self.$bf, out);)*)?
            }
        }
    };
}
pub(crate) use wire_struct;

/// Declare the wire layout of an enum with struct-like variants: a variant
/// byte, then the variant's fields in the listed order.
macro_rules! wire_enum {
    ($ty:ident { $($byte:literal = $variant:ident { $($f:ident),* }),* }) => {
        impl $crate::layout::Wire for $ty {
            fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
                match self {$(
                    $ty::$variant { $($f),* } => {
                        w.put_u8($byte);
                        $($f.put(w, refs);)*
                    }
                )*}
            }
            fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
                match r.get_u8()? {
                    $($byte => Ok($ty::$variant { $($f: Wire::get(r, refs)?),* }),)*
                    _ => Err(WireError::new(concat!("unknown ", stringify!($ty), " variant"))),
                }
            }
        }
    };
}
pub(crate) use wire_enum;
