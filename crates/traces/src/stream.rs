//! Streaming, shard-partitionable event sources for the fleetd service.
//!
//! The batch generator in [`crate::incident`] materializes a whole
//! trace up front from one sequential RNG — fine for
//! a one-shot `repro` pass, unusable for a long-running control plane
//! over 100k+ nodes, and (worse) *partition-dependent*: splitting the
//! node range across shards would change which draws each node sees.
//!
//! This module fixes both properties:
//!
//! - [`ShardIncidentSource`] generates each node's incident process from
//!   a **per-node RNG stream** seeded by `mix(seed, node)`. A node's
//!   event sequence is therefore a pure function of `(seed, node)` —
//!   independent of how the fleet is partitioned into shards and of how
//!   the polling windows are chosen. That invariance is what lets
//!   `anubis-fleetd` promise byte-identical output across shard counts.
//! - [`shard_ranges`] is the canonical contiguous partitioner: shard `s`
//!   owns a contiguous node range, ranges ascend with `s`, and sizes
//!   differ by at most one. Concatenating per-shard results in shard
//!   order therefore yields global node order.
//!
//! [`ShardIncidentSource`] splits each node's state into a hot and a cold
//! half. The hot half is two dense arrays: the hour of each node's next
//! incident ([`ShardIncidentSource::next_hours`]) and its wear, the
//! incidents since its last full repair ([`ShardIncidentSource::wear`]).
//! A shard's per-tick pass over its range reads those 12 bytes a node.
//! The cold half (the node's 80-byte [`NodeRng`] and its frailty, 88
//! bytes) is touched only when the node is due, about once every 40 ticks
//! at the default rates, and [`ShardIncidentSource::prefetch`] lets the
//! shard ask for it a few nodes early. Neither changes a draw: a node
//! whose next incident is not before the window end has nothing to poll,
//! and [`prefetch`] only warms the cache.

use crate::incident::{IncidentEvent, SourceMix, TicketDurationModel};
use anubis_hwsim::noise::{exponential, log_normal};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Splits `0..nodes` into `shards` contiguous ranges in ascending order;
/// sizes differ by at most one (the first `nodes % shards` ranges get the
/// extra node). `shards` is clamped to `1..=nodes.max(1)`.
#[expect(
    clippy::integer_division_remainder_used,
    reason = "`shards` is clamped to at least 1"
)]
pub fn shard_ranges(nodes: u32, shards: u32) -> Vec<Range<u32>> {
    let shards = shards.clamp(1, nodes.max(1));
    let base = nodes / shards;
    let extra = nodes % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut lo = 0u32;
    for s in 0..shards {
        let len = base + u32::from(s < extra);
        ranges.push(lo..lo + len);
        lo += len;
    }
    ranges
}

/// SplitMix64 finalizer: decorrelates per-node seeds derived from one
/// fleet seed so adjacent nodes get unrelated ChaCha streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed of a node's private RNG stream. `stream` distinguishes
/// independent streams on the same node (incident process, benchmark
/// noise, …).
pub fn node_stream_seed(seed: u64, node: u32, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(u64::from(node).wrapping_add(stream << 32)))
}

/// A node's private ChaCha8 stream in 80 bytes instead of a
/// [`ChaCha8Rng`]'s 136. It keeps the stream's seed and what changes as
/// the stream is read: the current keystream block and the number of
/// words read, which gives both the read cursor and the next block's
/// counter. The rest of the generator, the cipher constants, the 32-byte
/// key and the stream id, is a function of the seed, so each refill
/// rebuilds it through [`ChaCha8Rng::seed_from_u64`] and runs
/// [`ChaCha8Rng::block`]. The draws are those of
/// `ChaCha8Rng::seed_from_u64(seed)`, word for word (for the first 2^64
/// words, which no run reaches).
#[derive(Debug, Clone)]
pub struct NodeRng {
    /// The keystream block holding word `words - 1`.
    block: [u32; 16],
    /// Words read so far: the next one is word `words % 16` of block
    /// `words / 16`.
    words: u64,
    seed: u64,
}

impl NodeRng {
    /// The stream of `ChaCha8Rng::seed_from_u64(seed)`, positioned before
    /// its first word; `seed` is usually a [`node_stream_seed`].
    pub fn new(seed: u64) -> Self {
        Self {
            block: [0; 16],
            words: 0,
            seed,
        }
    }
}

impl RngCore for NodeRng {
    #[expect(
        clippy::indexing_slicing,
        reason = "`words % 16` indexes the 16-word block"
    )]
    fn next_u32(&mut self) -> u32 {
        let offset = (self.words & 15) as usize;
        if offset == 0 {
            self.block = ChaCha8Rng::seed_from_u64(self.seed).block(self.words >> 4);
        }
        self.words = self.words.wrapping_add(1);
        self.block[offset]
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        hi << 32 | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            for (byte, word_byte) in chunk.iter_mut().zip(self.next_u32().to_le_bytes()) {
                *byte = word_byte;
            }
        }
    }
}

/// Configuration of the streaming incident source — the statistical
/// knobs of [`crate::IncidentTraceConfig`] minus the batch-only fields,
/// plus a hazard cap so long-running services reach a bounded steady
/// state instead of a wear singularity.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentStreamConfig {
    /// Mean time to a fresh node's first incident, in hours.
    pub base_mtbi_hours: f64,
    /// Hazard growth per accumulated incident (partial repair leaves
    /// wear behind).
    pub wear_factor: f64,
    /// Accumulated-incident count beyond which the hazard stops growing.
    pub wear_cap: u32,
    /// Log-scale spread of per-node frailty (lemon nodes).
    pub frailty_sigma: f64,
    /// Fleet seed; per-node streams derive from it via
    /// [`node_stream_seed`].
    pub seed: u64,
}

impl Default for IncidentStreamConfig {
    fn default() -> Self {
        Self {
            base_mtbi_hours: 719.4,
            wear_factor: (719.4f64 / 151.7).powf(1.0 / 19.0),
            wear_cap: 12,
            frailty_sigma: 0.5,
            seed: 42,
        }
    }
}

/// One node's private incident-process state: the cold half, read only
/// when the node has an incident due (the hot half, its next-incident
/// hour and wear, is [`ShardIncidentSource`]'s dense arrays).
#[derive(Debug, Clone)]
struct NodeStream {
    /// The node's private RNG; every draw for this node comes from here.
    rng: NodeRng,
    /// Per-node frailty multiplier (lemon nodes fail more).
    frailty: f64,
}

/// Streaming incident source for one contiguous shard of the fleet.
///
/// Each node's inter-incident gaps are exponential with hazard
/// `frailty × γ^min(k, cap) / base_mtbi` after `k` incidents, mirroring
/// the batch generator's accumulating-wear model (Section 2.2 of the
/// paper), but drawn from the node's own RNG stream so the sequence is
/// partition- and window-invariant.
#[derive(Debug, Clone)]
pub struct ShardIncidentSource {
    config: IncidentStreamConfig,
    range: Range<u32>,
    /// Absolute hour of each node's next incident, by offset in `range`.
    next_hours: Vec<f64>,
    /// Incidents each node has had since its last full repair, by offset
    /// in `range`.
    wear: Vec<u32>,
    /// Each node's stream and frailty, by offset in `range`.
    streams: Vec<NodeStream>,
    /// The largest wear any node of the range has reached. A repair does
    /// not lower it, so it bounds every entry of `wear`.
    max_wear: u32,
    mix: SourceMix,
    tickets: TicketDurationModel,
}

impl ShardIncidentSource {
    /// Creates the source for the nodes in `range` (typically one entry
    /// of [`shard_ranges`]).
    pub fn new(config: &IncidentStreamConfig, range: Range<u32>) -> Self {
        let mut next_hours = Vec::with_capacity(range.len());
        let mut streams = Vec::with_capacity(range.len());
        for node in range.clone() {
            let mut rng = NodeRng::new(node_stream_seed(config.seed, node, 0));
            let frailty = log_normal(&mut rng, 0.0, config.frailty_sigma);
            let rate = frailty / config.base_mtbi_hours.max(1e-9);
            next_hours.push(exponential(&mut rng, rate));
            streams.push(NodeStream { rng, frailty });
        }
        Self {
            config: config.clone(),
            wear: vec![0; range.len()],
            max_wear: 0,
            range,
            next_hours,
            streams,
            mix: SourceMix::azure_like(),
            tickets: TicketDurationModel::figure2(),
        }
    }

    /// The node range this source owns.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// Each node's next-incident hour, by offset in the range.
    pub fn next_hours(&self) -> &[f64] {
        &self.next_hours
    }

    /// Each node's wear, the incidents polled since its last full repair
    /// ([`ShardIncidentSource::reset_wear`]), by offset in the range.
    pub fn wear(&self) -> &[u32] {
        &self.wear
    }

    /// The largest wear any node of the range has reached since the
    /// source was created, an upper bound of every entry of
    /// [`ShardIncidentSource::wear`].
    pub fn max_wear(&self) -> u32 {
        self.max_wear
    }

    /// Whether the node at offset `index` of the range has an incident
    /// with `start_hour < until_hour` still to poll. Reads only the dense
    /// next-incident array; `false` past the range's end.
    pub fn is_due(&self, index: usize, until_hour: f64) -> bool {
        self.next_hours
            .get(index)
            .is_some_and(|&next_hour| next_hour < until_hour)
    }

    /// Starts loading the cold state of the node at offset `index` of the
    /// range into the cache (see [`prefetch`]); no-op past the range's end.
    pub fn prefetch(&self, index: usize) {
        if let Some(stream) = self.streams.get(index) {
            prefetch(stream);
        }
    }

    /// Appends every incident of `node` with `start_hour < until_hour`
    /// to `out`, advancing the node's stream. Events arrive in start-hour
    /// order; repeated polling with growing windows never re-emits.
    #[expect(
        clippy::indexing_slicing,
        reason = "the shard offset of a node in range indexes the per-node arrays, all of the range's length"
    )]
    pub fn poll_node(&mut self, node: u32, until_hour: f64, out: &mut Vec<IncidentEvent>) {
        let Some(index) = node
            .checked_sub(self.range.start)
            .map(|i| i as usize)
            .filter(|&i| i < self.streams.len())
        else {
            return;
        };
        let NodeStream { rng, frailty } = &mut self.streams[index];
        while self.next_hours[index] < until_hour {
            let start_hour = self.next_hours[index];
            let ticket_hours = self.tickets.sample(rng);
            let category = self.mix.sample(rng);
            out.push(IncidentEvent {
                node,
                start_hour,
                ticket_hours,
                category,
            });
            let wear = self.wear[index].saturating_add(1);
            self.wear[index] = wear;
            self.max_wear = self.max_wear.max(wear);
            let rate = rate(&self.config, *frailty, wear);
            let gap = exponential(rng, rate);
            self.next_hours[index] = start_hour + gap;
        }
    }

    /// Resets a node's accumulated wear after a full repair: subsequent
    /// gaps are drawn at the fresh-node hazard again. The already-sampled
    /// next incident time is kept (the draw happened under the old
    /// hazard), so the reset never re-randomizes the past.
    pub fn reset_wear(&mut self, node: u32) {
        let offset = node.checked_sub(self.range.start);
        if let Some(wear) = offset.and_then(|i| self.wear.get_mut(i as usize)) {
            *wear = 0;
        }
    }
}

/// The hazard rate (incidents per hour) of a node with `frailty` and
/// `wear` past incidents.
fn rate(config: &IncidentStreamConfig, frailty: f64, wear: u32) -> f64 {
    let k = wear.min(config.wear_cap);
    frailty * config.wear_factor.powi(k as i32) / config.base_mtbi_hours.max(1e-9)
}

/// Asks the CPU to start loading every cache line of `value`, so a read
/// a few hundred cycles later finds it warm. A hint only: it changes no
/// value the program can observe. On targets other than x86_64 it does
/// nothing.
#[inline]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = std::ptr::from_ref(value).cast::<i8>();
        for offset in (0..std::mem::size_of::<T>()).step_by(64) {
            // SAFETY: `_mm_prefetch` needs only SSE, which every x86_64
            // target has. It never faults and writes nothing, and the
            // address lies inside `value`.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_add(offset)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_and_ascend() {
        for (nodes, shards) in [(10u32, 3u32), (100, 16), (5, 8), (1, 1), (7, 7)] {
            let ranges = shard_ranges(nodes, shards);
            let mut expect = 0u32;
            for r in &ranges {
                assert_eq!(r.start, expect, "ranges must be contiguous and ascending");
                assert!(r.end >= r.start);
                assert!(r.len() as u32 <= nodes / shards.min(nodes.max(1)) + 1);
                expect = r.end;
            }
            assert_eq!(expect, nodes, "ranges must cover every node");
        }
    }

    fn collect_events(
        config: &IncidentStreamConfig,
        shards: u32,
        nodes: u32,
    ) -> Vec<IncidentEvent> {
        let mut all = Vec::new();
        for range in shard_ranges(nodes, shards) {
            let mut source = ShardIncidentSource::new(config, range.clone());
            for node in range {
                source.poll_node(node, 2000.0, &mut all);
            }
        }
        all
    }

    #[test]
    fn incident_stream_is_partition_invariant() {
        let config = IncidentStreamConfig {
            base_mtbi_hours: 120.0,
            ..Default::default()
        };
        let one = collect_events(&config, 1, 64);
        let four = collect_events(&config, 4, 64);
        let sixteen = collect_events(&config, 16, 64);
        assert!(!one.is_empty());
        assert_eq!(one, four, "1 vs 4 shards must generate identical events");
        assert_eq!(
            one, sixteen,
            "1 vs 16 shards must generate identical events"
        );
    }

    #[test]
    fn incident_stream_is_window_invariant() {
        let config = IncidentStreamConfig {
            base_mtbi_hours: 80.0,
            ..Default::default()
        };
        let mut whole = Vec::new();
        let mut source = ShardIncidentSource::new(&config, 0..8);
        for node in 0..8 {
            source.poll_node(node, 1000.0, &mut whole);
        }

        let mut stepped = Vec::new();
        let mut source = ShardIncidentSource::new(&config, 0..8);
        for window in 0..100 {
            let until = f64::from(window + 1) * 10.0;
            for node in 0..8 {
                source.poll_node(node, until, &mut stepped);
            }
        }
        // Same multiset, different interleaving: compare per node.
        for node in 0..8u32 {
            let a: Vec<&IncidentEvent> = whole.iter().filter(|e| e.node == node).collect();
            let b: Vec<&IncidentEvent> = stepped.iter().filter(|e| e.node == node).collect();
            assert_eq!(a, b, "windowing must not change node {node}'s events");
        }
    }

    #[test]
    fn reset_wear_lowers_the_hazard_back() {
        let config = IncidentStreamConfig {
            base_mtbi_hours: 50.0,
            wear_factor: 2.0,
            ..Default::default()
        };
        let mut source = ShardIncidentSource::new(&config, 0..1);
        let mut events = Vec::new();
        source.poll_node(0, 500.0, &mut events);
        assert_eq!(source.wear(), [events.len() as u32]);
        let frailty = source.streams[0].frailty;
        let worn_rate = rate(&config, frailty, source.wear()[0]);
        source.reset_wear(0);
        let fresh_rate = rate(&config, frailty, source.wear()[0]);
        if !events.is_empty() {
            assert!(fresh_rate < worn_rate, "reset must drop the hazard");
        }
        assert_eq!(source.wear(), [0]);
    }

    #[test]
    fn incident_cold_state_size_is_pinned() {
        // 80 bytes of `NodeRng` and the 8-byte frailty: the bytes a due
        // node's poll reads besides the dense arrays. A new field must
        // show up here, not silently in the soak's peak RSS.
        fn element_size<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let source = ShardIncidentSource::new(&IncidentStreamConfig::default(), 0..1);
        assert_eq!(element_size(&source.streams), 88);
    }
}
