//! Seeded input generation and the self-describing payloads that let
//! any receiver check a delivered update byte for byte.
//!
//! Every generated update is named by `(stream, counter)`: the stream
//! is the generating connection (or the seeded store, or a group's
//! initial state) and the counter its position in that stream. An
//! update's object and payload bytes are a pure function of `(seed,
//! stream, counter)`, so the same seed always yields the same inputs
//! and a receiver can regenerate the exact bytes a sender put on the
//! wire.

use bytes::Bytes;
use corona_types::id::ObjectId;
use corona_types::state::{StateUpdate, UpdateKind};

/// Size of every payload and object state: the 1000-byte messages of
/// the paper's round-trip figure and throughput table (§5.2, Fig. 3
/// and Table 1). One size means no size mix to assume, and every
/// group state has the same size for every seed.
pub const PAYLOAD: usize = 1_000;

/// Payload header: stream (u32) ∥ counter (u64) ∥ length (u32), LE.
const HEADER: usize = 16;

/// The seeded body after the header, in whole 8-byte words.
const WORDS: usize = (PAYLOAD - HEADER) / 8;
const _: () = assert!((PAYLOAD - HEADER).is_multiple_of(8));

fn header(stream: u32, counter: u64) -> [u8; HEADER] {
    let mut out = [0; HEADER];
    out[0..4].copy_from_slice(&stream.to_le_bytes());
    out[4..12].copy_from_slice(&counter.to_le_bytes());
    out[12..16].copy_from_slice(&(PAYLOAD as u32).to_le_bytes());
    out
}

/// Stream id of a group's initial objects (counter = object id).
pub const STREAM_INITIAL: u32 = 0;

/// The splitmix64 finaliser: a cheap, well-mixed 64-bit hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small seeded generator for choices that are not tied to one
/// update (join policies, replay parameters).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a purpose tag, so independent
    /// choices drawn from one seed do not correlate.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        Rng(mix(seed ^ mix(purpose)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Generates and checks the updates of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct PayloadGen {
    seed: u64,
    /// Updates target objects `1..=objects`.
    objects: u64,
}

impl PayloadGen {
    /// A generator for `seed` whose updates touch objects
    /// `1..=objects`.
    pub fn new(seed: u64, objects: u64) -> PayloadGen {
        assert!(objects >= 1, "updates need an object");
        PayloadGen { seed, objects }
    }

    fn hash(&self, stream: u32, counter: u64) -> u64 {
        mix(self.seed ^ mix((u64::from(stream) << 40) ^ counter))
    }

    /// Object written by update `(stream, counter)`: a seeded choice
    /// among the generator's objects.
    pub fn object(&self, stream: u32, counter: u64) -> ObjectId {
        if stream == STREAM_INITIAL {
            return ObjectId::new(counter);
        }
        self.object_for(self.hash(stream, counter))
    }

    /// The object that the random bits `pick` select.
    pub fn object_for(&self, pick: u64) -> ObjectId {
        ObjectId::new(1 + (pick >> 20) % self.objects)
    }

    /// The payload bytes of update `(stream, counter)`.
    pub fn payload(&self, stream: u32, counter: u64) -> Bytes {
        let mut out = Vec::with_capacity(PAYLOAD);
        out.extend_from_slice(&header(stream, counter));
        for word in self.words(stream, counter) {
            out.extend_from_slice(&word.to_le_bytes());
        }
        Bytes::from(out)
    }

    /// The seeded body of update `(stream, counter)`, word by word
    /// (xorshift64: cheap enough to regenerate on every delivery).
    fn words(&self, stream: u32, counter: u64) -> impl Iterator<Item = u64> {
        let mut x = self.hash(stream, counter) | 1;
        std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .take(WORDS)
    }

    /// Whether `payload` is exactly the bytes of update `(stream,
    /// counter)`, compared in place without building them.
    pub fn matches(&self, stream: u32, counter: u64, payload: &[u8]) -> bool {
        payload.len() == PAYLOAD
            && payload[..HEADER] == header(stream, counter)
            && payload[HEADER..]
                .chunks_exact(8)
                .zip(self.words(stream, counter))
                .all(|(chunk, word)| chunk == word.to_le_bytes())
    }

    /// The `SetState` update `(stream, counter)`.
    pub fn update(&self, stream: u32, counter: u64) -> StateUpdate {
        StateUpdate::set_state(self.object(stream, counter), self.payload(stream, counter))
    }

    /// The initial objects `1..=n` of a group.
    pub fn initial_objects(&self, n: u64) -> Vec<(ObjectId, Bytes)> {
        (1..=n)
            .map(|id| (ObjectId::new(id), self.payload(STREAM_INITIAL, id)))
            .collect()
    }

    /// Checks that `payload` is exactly the bytes of the update it
    /// names, and returns that name.
    pub fn check_payload(&self, payload: &[u8]) -> Result<(u32, u64), String> {
        if payload.len() < HEADER {
            return Err(format!("payload of {} bytes has no header", payload.len()));
        }
        let stream = u32::from_le_bytes(payload[0..4].try_into().expect("4-byte slice"));
        let counter = u64::from_le_bytes(payload[4..12].try_into().expect("8-byte slice"));
        if self.matches(stream, counter, payload) {
            Ok((stream, counter))
        } else {
            Err(format!(
                "payload of update ({stream}, {counter}) differs from what was sent"
            ))
        }
    }

    /// Checks a delivered update: `SetState`, the right object, and a
    /// byte-exact payload. Returns the update's name.
    pub fn check_update(&self, update: &StateUpdate) -> Result<(u32, u64), String> {
        let (stream, counter) = self.check_payload(&update.payload)?;
        if update.kind != UpdateKind::SetState {
            return Err(format!("update ({stream}, {counter}) changed kind"));
        }
        if update.object != self.object(stream, counter) {
            return Err(format!("update ({stream}, {counter}) changed object"));
        }
        Ok((stream, counter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_round_trip_and_detect_corruption() {
        let gen = PayloadGen::new(7, 64);
        for counter in 0..500 {
            let update = gen.update(1, counter);
            assert_eq!(update.payload.len(), PAYLOAD);
            assert_eq!(gen.check_update(&update), Ok((1, counter)));
            let mut bad = update.payload.to_vec();
            let last = bad.len() - 1;
            bad[last] ^= 1;
            assert!(gen.check_payload(&bad).is_err());
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = PayloadGen::new(3, 256);
        let b = PayloadGen::new(3, 256);
        let c = PayloadGen::new(4, 256);
        assert_eq!(a.update(2, 9), b.update(2, 9));
        assert!((0..64).any(|i| a.update(2, i) != c.update(2, i)));
    }
}
