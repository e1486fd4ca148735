//! Binary flight-recorder wire format and the file-backed ring writer.
//!
//! The JSONL exporter costs a `format!`-shaped encode per event on the
//! recording box. A deployed receiver should not pay that just so an
//! operator can watch it, so the live operations plane writes a compact
//! **binary** stream instead and leaves JSONL to an offline converter
//! ([`crate::export::binary_to_jsonl`]). The format is:
//!
//! * **Versioned and self-describing.** The stream opens with a schema
//!   block enumerating every event kind, its field names, field types,
//!   and enum value tables — a tailer from a different build can detect
//!   drift instead of misdecoding, and the JSONL converter derives its
//!   key names from the stream itself.
//! * **Compact.** Fields are LEB128 varints; `seq`/`t_us` are
//!   delta-encoded against the previous record in the block and cycle
//!   ids are zigzag-delta encoded (the carousel revisits nearby cycles);
//!   enums are one byte; `f32` is its 4 raw bits. A typical event is
//!   3–8 bytes against ~60 of JSONL.
//! * **Corruption-evident.** Records are packed into fixed-size
//!   **frames**, each carrying a monotone frame sequence number and a
//!   CRC-32 over its payload, so a tailer racing the writer detects torn
//!   or lapped frames instead of trusting them.
//!
//! [`RingWriter`] lays those frames into a preallocated file-backed ring
//! (header page + `frame_count` slots, a frame's slot is
//! `seq % frame_count`) and publishes a monotone *committed* counter in
//! the header after each frame write. The writer never takes a lock the
//! hot path can block on — the spine hands it events under a `try_lock`
//! that drops (and counts) on contention — and appending a record
//! performs **zero allocations** in steady state: encoding goes through
//! a preallocated frame buffer and commits are a seek + two writes. An
//! out-of-process [`crate::tail::TailReader`] follows the committed
//! counter through its own file handle.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::event::{CommandCause, Event, EventRecord, FaultClass, PhaseState};
use crate::export::ObsSummary;
use crate::metrics::{HistogramSnapshot, HISTOGRAM_BUCKETS};

/// File magic: identifies an InFrame obs ring, format generation 1.
pub const MAGIC: [u8; 8] = *b"IFOBSRG1";

/// Wire-format version carried in the header and the schema block.
pub const VERSION: u16 = 1;

/// Size of the file header page preceding the frame slots.
pub const HEADER_BYTES: u64 = 64;

/// Byte offset of the committed-frames counter inside the header.
pub const COMMITTED_OFFSET: u64 = 32;

/// Size of the per-frame header inside a slot.
pub const FRAME_HEADER_BYTES: usize = 24;

/// Worst-case encoded size of one event record (kind byte + up to five
/// 10-byte varints + an f32). Appends reserve this much headroom.
pub const MAX_RECORD_BYTES: usize = 96;

/// Frame kind: the stream schema (kinds, fields, enum tables).
pub const FRAME_SCHEMA: u8 = 0;
/// Frame kind: a block of delta-encoded event records.
pub const FRAME_EVENTS: u8 = 1;
/// Frame kind: a registry snapshot fragment.
pub const FRAME_SNAPSHOT: u8 = 2;

/// Flag: first fragment of a multi-frame payload.
pub const FLAG_FIRST: u8 = 0x1;
/// Flag: last fragment of a multi-frame payload.
pub const FLAG_LAST: u8 = 0x2;

/// Ring geometry.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Bytes per frame slot (header + payload); ≥ 256.
    pub frame_size: u32,
    /// Number of frame slots in the ring; ≥ 4.
    pub frame_count: u32,
}

impl Default for RingConfig {
    fn default() -> Self {
        Self {
            frame_size: 4096,
            frame_count: 256,
        }
    }
}

// ---------------------------------------------------------------------------
// varint / zigzag / crc primitives
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint, advancing `pos`. `None` on truncation or a
/// varint longer than 10 bytes.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in 0..10 {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << (7 * shift);
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Zigzag-maps a signed delta onto an unsigned varint domain.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Event schema
// ---------------------------------------------------------------------------

/// Wire type of one event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Raw varint.
    U64,
    /// Four raw little-endian bytes of the IEEE-754 bit pattern.
    F32,
    /// Zigzag varint delta against the block's running cycle id.
    Cycle,
    /// One byte indexing the referenced enum table.
    Enum(u8),
}

impl FieldType {
    fn tag(self) -> (u8, u8) {
        match self {
            FieldType::U64 => (0, 0),
            FieldType::F32 => (1, 0),
            FieldType::Cycle => (2, 0),
            FieldType::Enum(t) => (3, t),
        }
    }

    fn from_tag(tag: u8, table: u8) -> Option<Self> {
        Some(match tag {
            0 => FieldType::U64,
            1 => FieldType::F32,
            2 => FieldType::Cycle,
            3 => FieldType::Enum(table),
            _ => return None,
        })
    }
}

/// One field of an event kind.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    /// JSONL key.
    pub name: &'static str,
    /// Wire type.
    pub ty: FieldType,
}

const fn f(name: &'static str, ty: FieldType) -> FieldSpec {
    FieldSpec { name, ty }
}

/// One event kind: its JSONL discriminator and field layout, in encode
/// order.
#[derive(Debug, Clone, Copy)]
pub struct KindSpec {
    /// JSONL `kind` value.
    pub name: &'static str,
    /// Fields in wire order (matches the JSONL key order).
    pub fields: &'static [FieldSpec],
}

/// Enum value tables referenced by [`FieldType::Enum`]: 0 = phase
/// states, 1 = command causes, 2 = fault classes.
pub const ENUM_TABLES: &[&[&str]] = &[
    &["acquiring", "locked", "suspect", "reacquiring"],
    &["backoff", "restore", "adapt"],
    &[
        "drop",
        "duplicate",
        "clock_skew",
        "exposure_drift",
        "occlusion",
        "desync",
    ],
];

/// The event vocabulary, indexed by wire kind id (the JSONL schema in
/// binary form). Kind id 0 is reserved so a zeroed byte never decodes.
pub const KINDS: &[KindSpec] = &[
    KindSpec {
        name: "cycle_rendered",
        fields: &[f("cycle", FieldType::Cycle)],
    },
    KindSpec {
        name: "cycle_decoded",
        fields: &[
            f("cycle", FieldType::Cycle),
            f("ok", FieldType::U64),
            f("erroneous", FieldType::U64),
            f("unavailable", FieldType::U64),
            f("captures", FieldType::U64),
        ],
    },
    KindSpec {
        name: "sync_transition",
        fields: &[
            f("from", FieldType::Enum(0)),
            f("to", FieldType::Enum(0)),
            f("in_state_us", FieldType::U64),
        ],
    },
    KindSpec {
        name: "session_health",
        fields: &[f("cycle", FieldType::Cycle), f("state", FieldType::Enum(0))],
    },
    KindSpec {
        name: "object_complete",
        fields: &[
            f("object", FieldType::U64),
            f("cycle", FieldType::Cycle),
            f("eps_milli", FieldType::U64),
        ],
    },
    KindSpec {
        name: "command",
        fields: &[
            f("cycle", FieldType::Cycle),
            f("delta", FieldType::F32),
            f("tau", FieldType::U64),
            f("cause", FieldType::Enum(1)),
        ],
    },
    KindSpec {
        name: "fault_start",
        fields: &[
            f("fault", FieldType::Enum(2)),
            f("from_cycle", FieldType::Cycle),
            f("until_cycle", FieldType::U64),
        ],
    },
    KindSpec {
        name: "fault_end",
        fields: &[
            f("fault", FieldType::Enum(2)),
            f("clearance_cycle", FieldType::Cycle),
        ],
    },
    KindSpec {
        name: "watchdog",
        fields: &[
            f("cycle", FieldType::Cycle),
            f("last_decoded_cycle", FieldType::U64),
            f("budget_cycles", FieldType::U64),
        ],
    },
];

fn phase_index(p: PhaseState) -> u64 {
    match p {
        PhaseState::Acquiring => 0,
        PhaseState::Locked => 1,
        PhaseState::Suspect => 2,
        PhaseState::Reacquiring => 3,
    }
}

fn phase_from(i: u64) -> Option<PhaseState> {
    Some(match i {
        0 => PhaseState::Acquiring,
        1 => PhaseState::Locked,
        2 => PhaseState::Suspect,
        3 => PhaseState::Reacquiring,
        _ => return None,
    })
}

fn cause_index(c: CommandCause) -> u64 {
    match c {
        CommandCause::Backoff => 0,
        CommandCause::Restore => 1,
        CommandCause::Adapt => 2,
    }
}

fn cause_from(i: u64) -> Option<CommandCause> {
    Some(match i {
        0 => CommandCause::Backoff,
        1 => CommandCause::Restore,
        2 => CommandCause::Adapt,
        _ => return None,
    })
}

fn fault_index(k: FaultClass) -> u64 {
    match k {
        FaultClass::Drop => 0,
        FaultClass::Duplicate => 1,
        FaultClass::ClockSkew => 2,
        FaultClass::ExposureDrift => 3,
        FaultClass::Occlusion => 4,
        FaultClass::Desync => 5,
    }
}

fn fault_from(i: u64) -> Option<FaultClass> {
    Some(match i {
        0 => FaultClass::Drop,
        1 => FaultClass::Duplicate,
        2 => FaultClass::ClockSkew,
        3 => FaultClass::ExposureDrift,
        4 => FaultClass::Occlusion,
        5 => FaultClass::Desync,
        _ => return None,
    })
}

/// Wire kind id of `event` (1-based; 0 is reserved).
pub fn event_kind_id(event: &Event) -> u8 {
    match event {
        Event::CycleRendered { .. } => 1,
        Event::CycleDecoded { .. } => 2,
        Event::SyncTransition { .. } => 3,
        Event::SessionHealth { .. } => 4,
        Event::ObjectComplete { .. } => 5,
        Event::Command { .. } => 6,
        Event::FaultStart { .. } => 7,
        Event::FaultEnd { .. } => 8,
        Event::Watchdog { .. } => 9,
    }
}

/// Flattens `event` into its schema-ordered field values. `u64::MAX`
/// sentinels pass through unchanged.
fn event_fields(event: &Event, out: &mut [u64; 5]) -> usize {
    match *event {
        Event::CycleRendered { cycle } => {
            out[0] = cycle;
            1
        }
        Event::CycleDecoded {
            cycle,
            ok,
            erroneous,
            unavailable,
            captures,
        } => {
            out[0] = cycle;
            out[1] = u64::from(ok);
            out[2] = u64::from(erroneous);
            out[3] = u64::from(unavailable);
            out[4] = u64::from(captures);
            5
        }
        Event::SyncTransition {
            from,
            to,
            in_state_us,
        } => {
            out[0] = phase_index(from);
            out[1] = phase_index(to);
            out[2] = in_state_us;
            3
        }
        Event::SessionHealth { cycle, state } => {
            out[0] = cycle;
            out[1] = phase_index(state);
            2
        }
        Event::ObjectComplete {
            object,
            cycle,
            eps_milli,
        } => {
            out[0] = object;
            out[1] = cycle;
            out[2] = u64::from(eps_milli);
            3
        }
        Event::Command {
            cycle,
            delta,
            tau,
            cause,
        } => {
            out[0] = cycle;
            out[1] = u64::from(delta.to_bits());
            out[2] = u64::from(tau);
            out[3] = cause_index(cause);
            4
        }
        Event::FaultStart {
            kind,
            from_cycle,
            until_cycle,
        } => {
            out[0] = fault_index(kind);
            out[1] = from_cycle;
            out[2] = until_cycle;
            3
        }
        Event::FaultEnd {
            kind,
            clearance_cycle,
        } => {
            out[0] = fault_index(kind);
            out[1] = clearance_cycle;
            2
        }
        Event::Watchdog {
            cycle,
            last_decoded_cycle,
            budget_cycles,
        } => {
            out[0] = cycle;
            out[1] = last_decoded_cycle;
            out[2] = budget_cycles;
            3
        }
    }
}

/// Rebuilds an [`Event`] from its kind id and schema-ordered field
/// values. `None` on an unknown kind or out-of-range enum.
fn event_from_fields(kind_id: u8, vals: &[u64; 5]) -> Option<Event> {
    Some(match kind_id {
        1 => Event::CycleRendered { cycle: vals[0] },
        2 => Event::CycleDecoded {
            cycle: vals[0],
            ok: vals[1] as u32,
            erroneous: vals[2] as u32,
            unavailable: vals[3] as u32,
            captures: vals[4] as u32,
        },
        3 => Event::SyncTransition {
            from: phase_from(vals[0])?,
            to: phase_from(vals[1])?,
            in_state_us: vals[2],
        },
        4 => Event::SessionHealth {
            cycle: vals[0],
            state: phase_from(vals[1])?,
        },
        5 => Event::ObjectComplete {
            object: vals[0],
            cycle: vals[1],
            eps_milli: vals[2] as u32,
        },
        6 => Event::Command {
            cycle: vals[0],
            delta: f32::from_bits(vals[1] as u32),
            tau: vals[2] as u32,
            cause: cause_from(vals[3])?,
        },
        7 => Event::FaultStart {
            kind: fault_from(vals[0])?,
            from_cycle: vals[1],
            until_cycle: vals[2],
        },
        8 => Event::FaultEnd {
            kind: fault_from(vals[0])?,
            clearance_cycle: vals[1],
        },
        9 => Event::Watchdog {
            cycle: vals[0],
            last_decoded_cycle: vals[1],
            budget_cycles: vals[2],
        },
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// Running delta bases, reset at every frame boundary so frames decode
/// independently.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecState {
    seq: u64,
    t_us: u64,
    cycle: u64,
}

/// Appends the wire encoding of `rec` to `out`.
pub fn encode_record(out: &mut Vec<u8>, state: &mut CodecState, rec: &EventRecord) {
    let kind_id = event_kind_id(&rec.event);
    out.push(kind_id);
    put_varint(out, rec.seq.wrapping_sub(state.seq));
    put_varint(out, rec.t_us.wrapping_sub(state.t_us));
    state.seq = rec.seq;
    state.t_us = rec.t_us;
    let mut vals = [0u64; 5];
    let n = event_fields(&rec.event, &mut vals);
    let spec = &KINDS[kind_id as usize - 1];
    debug_assert_eq!(n, spec.fields.len());
    for (field, &v) in spec.fields.iter().zip(vals.iter()).take(n) {
        match field.ty {
            FieldType::U64 => put_varint(out, v),
            FieldType::F32 => out.extend_from_slice(&(v as u32).to_le_bytes()),
            FieldType::Cycle => {
                put_varint(out, zigzag(v.wrapping_sub(state.cycle) as i64));
                state.cycle = v;
            }
            FieldType::Enum(_) => out.push(v as u8),
        }
    }
}

/// Decodes one record, advancing `pos`. `None` on truncation or an
/// unknown kind / enum value.
pub fn decode_record(buf: &[u8], pos: &mut usize, state: &mut CodecState) -> Option<EventRecord> {
    let kind_id = *buf.get(*pos)?;
    *pos += 1;
    let spec = KINDS.get((kind_id as usize).checked_sub(1)?)?;
    let seq = state.seq.wrapping_add(get_varint(buf, pos)?);
    let t_us = state.t_us.wrapping_add(get_varint(buf, pos)?);
    state.seq = seq;
    state.t_us = t_us;
    let mut vals = [0u64; 5];
    for (slot, field) in vals.iter_mut().zip(spec.fields.iter()) {
        *slot = match field.ty {
            FieldType::U64 => get_varint(buf, pos)?,
            FieldType::F32 => {
                let b = buf.get(*pos..*pos + 4)?;
                *pos += 4;
                u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            FieldType::Cycle => {
                let cycle = state
                    .cycle
                    .wrapping_add(unzigzag(get_varint(buf, pos)?) as u64);
                state.cycle = cycle;
                cycle
            }
            FieldType::Enum(table) => {
                let v = u64::from(*buf.get(*pos)?);
                *pos += 1;
                if v as usize >= ENUM_TABLES.get(table as usize)?.len() {
                    return None;
                }
                v
            }
        };
    }
    Some(EventRecord {
        seq,
        t_us,
        event: event_from_fields(kind_id, &vals)?,
    })
}

// ---------------------------------------------------------------------------
// Schema block codec
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = usize::try_from(get_varint(buf, pos)?).ok()?;
    let end = pos.checked_add(len)?;
    let s = buf.get(*pos..end)?;
    *pos = end;
    std::str::from_utf8(s).ok()
}

/// Encodes the stream schema — version, event kinds with field names and
/// types, and the enum value tables — as a schema-frame payload.
pub fn encode_schema(out: &mut Vec<u8>) {
    put_varint(out, u64::from(VERSION));
    put_varint(out, KINDS.len() as u64);
    for kind in KINDS {
        put_str(out, kind.name);
        put_varint(out, kind.fields.len() as u64);
        for field in kind.fields {
            put_str(out, field.name);
            let (tag, table) = field.ty.tag();
            out.push(tag);
            out.push(table);
        }
    }
    put_varint(out, ENUM_TABLES.len() as u64);
    for table in ENUM_TABLES {
        put_varint(out, table.len() as u64);
        for name in *table {
            put_str(out, name);
        }
    }
}

/// Checks a schema-frame payload against this build's schema. Returns
/// the stream's version on success, a description of the first mismatch
/// otherwise — the tailer's drift detector.
pub fn verify_schema(buf: &[u8]) -> Result<u16, String> {
    let pos = &mut 0usize;
    let err = |what: &str| format!("schema block truncated or malformed at {what}");
    let version = get_varint(buf, pos).ok_or_else(|| err("version"))?;
    if version != u64::from(VERSION) {
        return Err(format!(
            "schema version {version}, this build reads {VERSION}"
        ));
    }
    let kinds = get_varint(buf, pos).ok_or_else(|| err("kind count"))? as usize;
    if kinds != KINDS.len() {
        return Err(format!("{kinds} kinds in stream, {} in build", KINDS.len()));
    }
    for kind in KINDS {
        let name = get_str(buf, pos).ok_or_else(|| err("kind name"))?;
        if name != kind.name {
            return Err(format!("kind `{name}` where `{}` expected", kind.name));
        }
        let fields = get_varint(buf, pos).ok_or_else(|| err("field count"))? as usize;
        if fields != kind.fields.len() {
            return Err(format!("kind `{name}` has {fields} fields in stream"));
        }
        for field in kind.fields {
            let fname = get_str(buf, pos).ok_or_else(|| err("field name"))?;
            let tag = *buf.get(*pos).ok_or_else(|| err("field tag"))?;
            let table = *buf.get(*pos + 1).ok_or_else(|| err("field table"))?;
            *pos += 2;
            if fname != field.name || FieldType::from_tag(tag, table) != Some(field.ty) {
                return Err(format!("field `{}.{fname}` drifted", kind.name));
            }
        }
    }
    let tables = get_varint(buf, pos).ok_or_else(|| err("enum table count"))? as usize;
    if tables != ENUM_TABLES.len() {
        return Err(format!("{tables} enum tables in stream"));
    }
    for table in ENUM_TABLES {
        let entries = get_varint(buf, pos).ok_or_else(|| err("enum entries"))? as usize;
        if entries != table.len() {
            return Err("enum table size drifted".into());
        }
        for expected in *table {
            let name = get_str(buf, pos).ok_or_else(|| err("enum name"))?;
            if name != *expected {
                return Err(format!("enum value `{name}` where `{expected}` expected"));
            }
        }
    }
    Ok(version as u16)
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------

fn put_named_u64s(out: &mut Vec<u8>, list: &[(String, u64)]) {
    put_varint(out, list.len() as u64);
    for (name, v) in list {
        put_str(out, name);
        put_varint(out, *v);
    }
}

fn get_named_u64s(buf: &[u8], pos: &mut usize) -> Option<Vec<(String, u64)>> {
    let n = get_varint(buf, pos)? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let name = get_str(buf, pos)?.to_string();
        let v = get_varint(buf, pos)?;
        out.push((name, v));
    }
    Some(out)
}

/// Encodes a registry snapshot ([`ObsSummary`]) as a snapshot-frame
/// payload. Histogram buckets are run-skipped sparse pairs, so a mostly
/// empty sketch costs bytes proportional to its occupancy.
pub fn encode_snapshot(out: &mut Vec<u8>, summary: &ObsSummary) {
    put_named_u64s(out, &summary.counters);
    put_named_u64s(out, &summary.gauges);
    put_named_u64s(out, &summary.sharded);
    put_varint(out, summary.histograms.len() as u64);
    for (name, h) in &summary.histograms {
        put_str(out, name);
        put_varint(out, h.count);
        put_varint(out, h.sum);
        put_varint(out, h.min);
        put_varint(out, h.max);
        let nonzero = h.buckets.iter().filter(|&&b| b > 0).count();
        put_varint(out, nonzero as u64);
        for (i, &b) in h.buckets.iter().enumerate() {
            if b > 0 {
                put_varint(out, i as u64);
                put_varint(out, b);
            }
        }
    }
    put_varint(out, summary.events_recorded);
    put_varint(out, summary.events_dropped);
}

/// Decodes a snapshot-frame payload back into an [`ObsSummary`].
pub fn decode_snapshot(buf: &[u8]) -> Option<ObsSummary> {
    let pos = &mut 0usize;
    let counters = get_named_u64s(buf, pos)?;
    let gauges = get_named_u64s(buf, pos)?;
    let sharded = get_named_u64s(buf, pos)?;
    let nh = get_varint(buf, pos)? as usize;
    let mut histograms = Vec::with_capacity(nh.min(4096));
    for _ in 0..nh {
        let name = get_str(buf, pos)?.to_string();
        let mut h = HistogramSnapshot {
            count: get_varint(buf, pos)?,
            sum: get_varint(buf, pos)?,
            min: get_varint(buf, pos)?,
            max: get_varint(buf, pos)?,
            ..HistogramSnapshot::default()
        };
        let nonzero = get_varint(buf, pos)? as usize;
        for _ in 0..nonzero {
            let i = get_varint(buf, pos)? as usize;
            let b = get_varint(buf, pos)?;
            if i >= HISTOGRAM_BUCKETS {
                return None;
            }
            h.buckets[i] = b;
        }
        histograms.push((name, h));
    }
    Some(ObsSummary {
        counters,
        gauges,
        histograms,
        sharded,
        events_recorded: get_varint(buf, pos)?,
        events_dropped: get_varint(buf, pos)?,
    })
}

// ---------------------------------------------------------------------------
// RingWriter
// ---------------------------------------------------------------------------

/// Writes the binary event stream into a preallocated file-backed ring
/// that an out-of-process [`crate::tail::TailReader`] can follow. See
/// the module docs for the layout. Single-writer; the spine serializes
/// access with a `try_lock` that drops on contention rather than
/// blocking the hot path.
#[derive(Debug)]
pub struct RingWriter {
    file: File,
    frame_size: usize,
    frame_count: u64,
    /// Payload of the events frame currently being filled.
    payload: Vec<u8>,
    /// Fully assembled frame image, reused across commits.
    frame_buf: Vec<u8>,
    /// Snapshot encode scratch, reused across snapshots.
    scratch: Vec<u8>,
    state: CodecState,
    next_seq: u64,
    events_appended: u64,
    frames_committed: u64,
}

impl RingWriter {
    /// Creates (truncating) a ring file at `path` and writes the header
    /// page and the schema frame.
    pub fn create<P: AsRef<Path>>(path: P, cfg: RingConfig) -> io::Result<Self> {
        assert!(cfg.frame_size >= 256, "frame_size must be ≥ 256");
        assert!(cfg.frame_count >= 4, "frame_count must be ≥ 4");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = [0u8; HEADER_BYTES as usize];
        header[..8].copy_from_slice(&MAGIC);
        header[8..10].copy_from_slice(&VERSION.to_le_bytes());
        header[10..14].copy_from_slice(&cfg.frame_size.to_le_bytes());
        header[14..18].copy_from_slice(&cfg.frame_count.to_le_bytes());
        // committed (offset 32) starts at 0.
        let mut w = Self {
            file,
            frame_size: cfg.frame_size as usize,
            frame_count: u64::from(cfg.frame_count),
            payload: Vec::with_capacity(cfg.frame_size as usize),
            frame_buf: vec![0u8; cfg.frame_size as usize],
            scratch: Vec::with_capacity(1024),
            state: CodecState::default(),
            next_seq: 0,
            events_appended: 0,
            frames_committed: 0,
        };
        w.file.seek(SeekFrom::Start(0))?;
        w.file.write_all(&header)?;
        // Preallocate the slot region so tailer reads never hit EOF.
        w.file
            .set_len(HEADER_BYTES + u64::from(cfg.frame_size) * u64::from(cfg.frame_count))?;
        // The stream opens with its schema.
        w.scratch.clear();
        let mut schema = std::mem::take(&mut w.scratch);
        encode_schema(&mut schema);
        w.commit_fragmented(FRAME_SCHEMA, &schema)?;
        w.scratch = schema;
        Ok(w)
    }

    /// Payload capacity of one frame.
    fn capacity(&self) -> usize {
        self.frame_size - FRAME_HEADER_BYTES
    }

    /// Appends one event record; commits the open events frame first if
    /// it cannot hold another worst-case record. Allocation-free in
    /// steady state.
    pub fn append(&mut self, rec: &EventRecord) -> io::Result<()> {
        if self.payload.len() + MAX_RECORD_BYTES > self.capacity() {
            self.flush()?;
        }
        encode_record(&mut self.payload, &mut self.state, rec);
        self.events_appended += 1;
        Ok(())
    }

    /// Commits the open events frame, if any records are buffered. The
    /// tailer only sees committed frames, so call this at a natural
    /// boundary (cycle end, scenario end) when latency matters.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.payload.is_empty() {
            return Ok(());
        }
        let payload = std::mem::take(&mut self.payload);
        let res = self.commit(FRAME_EVENTS, FLAG_FIRST | FLAG_LAST, &payload);
        self.payload = payload;
        self.payload.clear();
        self.state = CodecState::default();
        res
    }

    /// Writes a registry snapshot into the stream (flushing buffered
    /// events first so ordering is preserved), fragmenting across frames
    /// when it exceeds one frame's payload.
    pub fn write_snapshot(&mut self, summary: &ObsSummary) -> io::Result<()> {
        self.flush()?;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        encode_snapshot(&mut scratch, summary);
        let res = self.commit_fragmented(FRAME_SNAPSHOT, &scratch);
        self.scratch = scratch;
        res
    }

    /// Commits `payload` as one or more frames of `kind`, splitting
    /// across slots with FIRST/LAST fragment flags when it exceeds one
    /// frame's payload capacity (the tailer reassembles).
    fn commit_fragmented(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        if payload.is_empty() {
            return self.commit(kind, FLAG_FIRST | FLAG_LAST, &[]);
        }
        let cap = self.capacity();
        let last = (payload.len() - 1) / cap;
        for (i, chunk) in payload.chunks(cap).enumerate() {
            let mut flags = 0u8;
            if i == 0 {
                flags |= FLAG_FIRST;
            }
            if i == last {
                flags |= FLAG_LAST;
            }
            self.commit(kind, flags, chunk)?;
        }
        Ok(())
    }

    fn commit(&mut self, kind: u8, flags: u8, payload: &[u8]) -> io::Result<()> {
        debug_assert!(payload.len() <= self.capacity());
        let seq = self.next_seq;
        self.frame_buf.fill(0);
        self.frame_buf[..8].copy_from_slice(&seq.to_le_bytes());
        self.frame_buf[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        self.frame_buf[12] = kind;
        self.frame_buf[13] = flags;
        self.frame_buf[16..20].copy_from_slice(&crc32(payload).to_le_bytes());
        self.frame_buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + payload.len()]
            .copy_from_slice(payload);
        let offset = HEADER_BYTES + (seq % self.frame_count) * self.frame_size as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&self.frame_buf)?;
        self.next_seq = seq + 1;
        // Publish: the committed counter moves only after the frame is
        // fully written, so a tailer never reads a half-written frame as
        // committed (a lapped frame is caught by its seq + CRC).
        self.file.seek(SeekFrom::Start(COMMITTED_OFFSET))?;
        self.file.write_all(&self.next_seq.to_le_bytes())?;
        self.frames_committed += 1;
        Ok(())
    }

    /// Events appended so far (committed or still buffered).
    pub fn events_appended(&self) -> u64 {
        self.events_appended
    }

    /// Frames committed so far (schema + events + snapshot fragments).
    pub fn frames_committed(&self) -> u64 {
        self.frames_committed
    }

    /// Ring geometry this writer was created with.
    pub fn config(&self) -> RingConfig {
        RingConfig {
            frame_size: self.frame_size as u32,
            frame_count: self.frame_count as u32,
        }
    }
}

/// Parsed ring-file header.
#[derive(Debug, Clone, Copy)]
pub struct RingHeader {
    /// Wire-format version.
    pub version: u16,
    /// Ring geometry.
    pub config: RingConfig,
    /// Frames committed by the writer at read time.
    pub committed: u64,
}

/// Reads and validates a ring-file header from an open file.
pub fn read_header(file: &mut File) -> io::Result<RingHeader> {
    let mut header = [0u8; HEADER_BYTES as usize];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut header)?;
    if header[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an InFrame obs ring (bad magic)",
        ));
    }
    let version = u16::from_le_bytes([header[8], header[9]]);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("ring format version {version}, this build reads {VERSION}"),
        ));
    }
    let frame_size = u32::from_le_bytes(header[10..14].try_into().unwrap());
    let frame_count = u32::from_le_bytes(header[14..18].try_into().unwrap());
    if frame_size < 256 || frame_count < 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "ring geometry out of range",
        ));
    }
    let committed = u64::from_le_bytes(header[32..40].try_into().unwrap());
    Ok(RingHeader {
        version,
        config: RingConfig {
            frame_size,
            frame_count,
        },
        committed,
    })
}

/// Re-reads only the committed counter (the tailer's poll primitive).
pub fn read_committed(file: &mut File) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    file.seek(SeekFrom::Start(COMMITTED_OFFSET))?;
    file.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<EventRecord> {
        let events = [
            Event::CycleRendered { cycle: 0 },
            Event::CycleDecoded {
                cycle: 0,
                ok: 30,
                erroneous: 1,
                unavailable: 2,
                captures: 9,
            },
            Event::SyncTransition {
                from: PhaseState::Acquiring,
                to: PhaseState::Locked,
                in_state_us: 1200,
            },
            Event::SessionHealth {
                cycle: 1,
                state: PhaseState::Suspect,
            },
            Event::ObjectComplete {
                object: 7,
                cycle: 40,
                eps_milli: 150,
            },
            Event::Command {
                cycle: 41,
                delta: 0.125,
                tau: 12,
                cause: CommandCause::Backoff,
            },
            Event::FaultStart {
                kind: FaultClass::Desync,
                from_cycle: 8,
                until_cycle: 9,
            },
            Event::FaultEnd {
                kind: FaultClass::Desync,
                clearance_cycle: 10,
            },
            Event::Watchdog {
                cycle: 64,
                last_decoded_cycle: u64::MAX,
                budget_cycles: 16,
            },
        ];
        events
            .iter()
            .enumerate()
            .map(|(i, &event)| EventRecord {
                seq: 10 + i as u64,
                t_us: 1_000_000 + 137 * i as u64,
                event,
            })
            .collect()
    }

    #[test]
    fn record_codec_round_trips_every_kind() {
        let records = sample_events();
        let mut buf = Vec::new();
        let mut enc = CodecState::default();
        for rec in &records {
            encode_record(&mut buf, &mut enc, rec);
        }
        // Dense: the whole stream costs a fraction of its JSONL size.
        assert!(
            buf.len() < records.len() * 16,
            "wire too fat: {}",
            buf.len()
        );
        let mut dec = CodecState::default();
        let mut pos = 0usize;
        for rec in &records {
            let got = decode_record(&buf, &mut pos, &mut dec).expect("decodes");
            assert_eq!(got, *rec);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut pos = 0;
        assert!(decode_record(&[0xFF, 0x01], &mut pos, &mut CodecState::default()).is_none());
        let mut pos = 0;
        assert!(decode_record(&[0x00], &mut pos, &mut CodecState::default()).is_none());
        // Enum out of range.
        let rec = EventRecord {
            seq: 0,
            t_us: 0,
            event: Event::SessionHealth {
                cycle: 1,
                state: PhaseState::Locked,
            },
        };
        let mut buf = Vec::new();
        encode_record(&mut buf, &mut CodecState::default(), &rec);
        let state_byte = buf.len() - 1;
        buf[state_byte] = 200;
        let mut pos = 0;
        assert!(decode_record(&buf, &mut pos, &mut CodecState::default()).is_none());
    }

    #[test]
    fn schema_block_verifies_and_detects_drift() {
        let mut buf = Vec::new();
        encode_schema(&mut buf);
        assert_eq!(verify_schema(&buf), Ok(VERSION));
        // Flip a byte inside a kind name: drift must be reported.
        let needle = b"cycle_rendered";
        let at = buf
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("kind name present");
        buf[at] = b'x';
        assert!(verify_schema(&buf).is_err());
    }

    #[test]
    fn snapshot_with_a_huge_string_length_is_rejected() {
        // One counter whose name claims 2⁶⁴ − 1 bytes: the end of the
        // string must not wrap past the buffer.
        let mut payload = vec![0x01];
        payload.extend([0xFF; 9]);
        payload.push(0x01);
        assert!(decode_snapshot(&payload).is_none());
    }

    /// A valid snapshot payload with every section populated.
    fn sample_snapshot() -> Vec<u8> {
        let tele = crate::Telemetry::new();
        tele.counter("core.demux.captures").add(41);
        tele.gauge("core.sender.pool_live").set(3);
        tele.sharded_counter("test.sharded").add(1, 7);
        let h = tele.histogram("core.demux.score_ns");
        for v in [1, 900, 70_000, u64::MAX / 3] {
            h.record(v);
        }
        let mut out = Vec::new();
        encode_snapshot(&mut out, &tele.summary());
        out
    }

    /// Every prefix of `valid` and every single-byte xor of it, through
    /// `decode`, which must return (anything) rather than panic.
    fn survives_prefixes_and_byte_flips(valid: &[u8], decode: impl Fn(&[u8])) {
        for end in 0..=valid.len() {
            decode(&valid[..end]);
        }
        let mut buf = valid.to_vec();
        for i in 0..buf.len() {
            for mask in 1..=255u8 {
                buf[i] ^= mask;
                decode(&buf);
                buf[i] ^= mask;
            }
        }
    }

    #[test]
    fn decoders_never_panic_on_truncated_or_mutated_input() {
        let snapshot = sample_snapshot();
        assert!(decode_snapshot(&snapshot).is_some());
        survives_prefixes_and_byte_flips(&snapshot, |b| {
            let _ = decode_snapshot(b);
        });

        let mut schema = Vec::new();
        encode_schema(&mut schema);
        assert_eq!(verify_schema(&schema), Ok(VERSION));
        survives_prefixes_and_byte_flips(&schema, |b| {
            let _ = verify_schema(b);
        });

        let mut records = Vec::new();
        let mut enc = CodecState::default();
        for rec in &sample_events() {
            encode_record(&mut records, &mut enc, rec);
        }
        survives_prefixes_and_byte_flips(&records, |b| {
            let mut state = CodecState::default();
            let mut pos = 0;
            while pos < b.len() && decode_record(b, &mut pos, &mut state).is_some() {}
        });
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
