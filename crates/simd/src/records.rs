//! The record-admission kernel: one pass over a batch of 16-byte
//! little-endian update records `{seq: u64, idx: u32, bits: u32}` that
//! splits them into a key column and a value-bits column and returns two
//! verdicts over the whole batch.
//!
//! An update stream is irregular in its keys, but the batches a client
//! sends are regular in their positions: one seq-contiguous run, every key
//! in range. The pass checks exactly that, so a batch of that shape is
//! admitted with no per-record branch. [`split_records`] is the portable
//! fused loop; on AVX-512 hosts the serving layer runs
//! [`arch::avx512::split_records`](crate::arch::avx512) instead, which must
//! agree with it bit for bit (`tests/native_differential.rs`).

use std::mem::MaybeUninit;

/// Bytes per wire record (`seq:u64 idx:u32 bits:u32`, little-endian).
pub const RECORD_LEN: usize = 16;

/// What one pass over a batch found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordVerdict {
    /// Every record's key is below the slot count (unsigned compare).
    pub in_range: bool,
    /// Record `i` carries seq `seq₀ + i` (wrapping), where `seq₀` is the
    /// first record's: the batch is one contiguous run.
    pub contiguous: bool,
}

impl RecordVerdict {
    /// The verdict over an empty batch: nothing fails.
    pub const CLEAN: RecordVerdict = RecordVerdict { in_range: true, contiguous: true };
}

/// Splits `records` into `keys` and `bits` (record `i`'s key as `i32` into
/// `keys[i]`, its value bits into `bits[i]`) and judges the batch. Every
/// element of both columns is initialized, whatever the verdict.
///
/// # Panics
///
/// Panics unless `records` holds whole records and both columns hold
/// exactly one element per record.
pub fn split_records(
    records: &[u8],
    slots: u32,
    keys: &mut [MaybeUninit<i32>],
    bits: &mut [MaybeUninit<u32>],
) -> RecordVerdict {
    let n = records.len() / RECORD_LEN;
    assert!(
        records.len().is_multiple_of(RECORD_LEN) && keys.len() == n && bits.len() == n,
        "{} record bytes into columns of {} keys and {} bits",
        records.len(),
        keys.len(),
        bits.len()
    );
    let field =
        |r: &[u8], at: usize| u32::from_le_bytes(r[at..at + 4].try_into().expect("4 bytes"));
    let first = records.first_chunk::<8>().map_or(0, |s| u64::from_le_bytes(*s));
    let (mut in_range, mut contiguous) = (true, true);
    let columns = keys.iter_mut().zip(bits.iter_mut());
    for (i, (r, (key, value))) in records.chunks_exact(RECORD_LEN).zip(columns).enumerate() {
        let seq = u64::from_le_bytes(r[..8].try_into().expect("8 bytes"));
        let idx = field(r, 8);
        in_range &= idx < slots;
        contiguous &= seq == first.wrapping_add(i as u64);
        key.write(idx as i32);
        value.write(field(r, 12));
    }
    RecordVerdict { in_range, contiguous }
}
