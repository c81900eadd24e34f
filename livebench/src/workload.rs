//! The three workloads, each run as a sequence of identical rounds:
//! fresh servers, an untimed warm-up, then a fixed operation count.

use crate::drive::{
    probe_joins, write_gated, Broadcaster, JoinRun, Joiner, PolicyChoice, Shadow, SharedShadow,
};
use crate::gen::{PayloadGen, Rng};
use crate::member::Member;
use crate::sys::{self, Counters};
use corona_core::{CoronaServer, ServerConfig};
use corona_metrics::MetricsSnapshot;
use corona_replication::{ReplicatedConfig, ReplicatedServer};
use corona_statelog::{StableStore, SyncPolicy};
use corona_trace::SpanEvent;
use corona_transport::{Listener, TcpAcceptor, TcpDialer};
use corona_types::id::{ClientId, GroupId, SeqNo, ServerId};
use corona_types::policy::{Persistence, StateTransferPolicy};
use corona_types::state::{LoggedUpdate, SharedState, Timestamp};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The data group every workload broadcasts to.
pub const GROUP: GroupId = GroupId(1);
/// The `bcast` / `replicated` join probe's group.
pub const PROBE_GROUP: GroupId = GroupId(2);

/// Own broadcasts each connection keeps outstanding.
pub const WINDOW: usize = 4;
/// Objects the `bcast` / `replicated` broadcasts write.
pub const BCAST_OBJECTS: u64 = 64;
/// Untimed warm-up broadcasts per member per round.
pub const BCAST_WARMUP: u64 = 1_000;
/// Timed broadcasts per member per round: `bcast`, `replicated`.
pub const BCAST_TIMED: u64 = 10_000;
pub const REPLICATED_TIMED: u64 = 5_000;
/// Initial objects of the probe group.
pub const PROBE_OBJECTS: u64 = 16;
/// Untimed / timed probe joins per round.
pub const PROBE_WARMUP: u64 = 50;
pub const PROBE_JOINS: u64 = 1_000;

/// Objects of the `join` workload's persistent group.
pub const STORE_OBJECTS: u64 = 256;
/// Updates in the seeded store recovered at every set-up.
pub const STORE_UPDATES: u64 = 20_000;
/// Stream id of the seeded store's updates.
pub const STORE_STREAM: u32 = 3;
/// Untimed / timed joins per `join` round.
pub const JOIN_WARMUP: u64 = 50;
pub const JOIN_TIMED: u64 = 1_000;
/// Writer broadcasts per join.
pub const WRITES_PER_JOIN: u64 = 4;
/// Length of the seeded join-policy cycle.
const POLICY_MIX_LEN: usize = 500;

/// In a traced round, one broadcast in this many carries a trace
/// token, so a round's spans fit the flight recorder's per-thread
/// rings.
pub const TRACE_EVERY: u64 = 32;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["bcast", "replicated", "join"];

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// Own-broadcast round trips in the timed phase.
    pub rtts_ns: Vec<u64>,
    /// Broadcasts completed in the timed phase, and its wall time.
    pub bcasts: u64,
    pub bcast_secs: f64,
    /// The join phase (probe or `join` workload's joiner).
    pub joins: JoinRun,
    /// Operations of the timed phase (broadcasts, plus joins on `join`).
    pub ops: u64,
    /// Process counters over the timed phase.
    pub proc: Option<Counters>,
    /// Generator threads' CPU seconds over the timed phase.
    pub gen_cpu_secs: f64,
    /// Server metric deltas over the timed phase (all servers).
    pub server: MetricsSnapshot,
    pub threads: u64,
    /// Operations attempted / completed over the whole round.
    pub attempted: u64,
    pub completed: u64,
    /// Process peak RSS after the round (set for the first round).
    pub peak_rss_mib: f64,
    /// Wall time of the whole round, set-up and teardown included.
    pub wall_s: f64,
    /// Host steal and total CPU ticks over the whole round.
    pub host_steal: u64,
    pub host_total: u64,
    /// Trace spans (traced rounds only).
    pub spans: Vec<SpanEvent>,
}

impl Round {
    /// Share of the host's CPU time stolen by the hypervisor during
    /// the round (set-up, warm-up, timed and join phases).
    pub fn steal(&self) -> f64 {
        if self.host_total == 0 {
            0.0
        } else {
            self.host_steal as f64 / self.host_total as f64
        }
    }
}

/// The servers under test.
enum Cluster {
    Single(CoronaServer),
    Replicated(Vec<ReplicatedServer>),
}

impl Cluster {
    /// One `CoronaServer` with the shipped defaults (reactor transport),
    /// optionally with stable storage under `store`.
    fn single(store: Option<&Path>) -> Result<Cluster, String> {
        let mut config = ServerConfig::stateful(ServerId::new(1));
        if let Some(dir) = store {
            config = config
                .with_storage(dir)
                .with_sync_policy(SyncPolicy::OsDefault);
        }
        CoronaServer::bind("127.0.0.1:0", config)
            .map(Cluster::Single)
            .map_err(|e| format!("server start: {e}"))
    }

    /// Three `ReplicatedServer`s with `ReplicatedConfig::new` defaults
    /// over the threaded TCP transport; server 1 coordinates.
    fn replicated() -> Result<Cluster, String> {
        let bind = || TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
        let mut clients = Vec::new();
        let mut peers = Vec::new();
        for _ in 0..3 {
            clients.push(bind()?);
            peers.push(bind()?);
        }
        let addrs = |ls: &[TcpAcceptor]| -> Vec<(ServerId, String)> {
            ls.iter()
                .enumerate()
                .map(|(i, l)| (ServerId::new(i as u64 + 1), l.local_addr()))
                .collect()
        };
        let peer_addrs = addrs(&peers);
        let client_addrs = addrs(&clients);
        let mut servers = Vec::new();
        for (i, (client, peer)) in clients.into_iter().zip(peers).enumerate() {
            let config = ReplicatedConfig::new(ServerId::new(i as u64 + 1), peer_addrs.clone())
                .with_client_addrs(client_addrs.clone());
            servers.push(
                ReplicatedServer::start(
                    Box::new(client),
                    Box::new(peer),
                    Arc::new(TcpDialer),
                    config,
                )
                .map_err(|e| format!("replica start: {e}"))?,
            );
        }
        Ok(Cluster::Replicated(servers))
    }

    /// Where member `i` connects: the single server, or (replicated)
    /// the followers 2 and 3, so every member's broadcast takes the
    /// forwarded path.
    fn member_addr(&self, i: usize) -> String {
        match self {
            Cluster::Single(s) => s.local_addr(),
            Cluster::Replicated(rs) => rs[1 + i % 2].client_addr(),
        }
    }

    fn metrics(&self) -> Result<MetricsSnapshot, String> {
        match self {
            Cluster::Single(s) => s.metrics().map_err(|e| e.to_string()),
            Cluster::Replicated(rs) => {
                let mut all = MetricsSnapshot::default();
                for r in rs {
                    all.merge(&r.metrics());
                }
                Ok(all)
            }
        }
    }

    fn shutdown(self) {
        match self {
            Cluster::Single(s) => s.shutdown(),
            Cluster::Replicated(rs) => rs.into_iter().for_each(ReplicatedServer::shutdown),
        }
    }
}

/// A cut taken by the leading generator thread at a phase boundary.
struct Cut {
    at: Instant,
    proc: Counters,
    server: MetricsSnapshot,
    /// Live threads, every generator thread included.
    threads: u64,
}

impl Cut {
    fn take(cluster: &Cluster) -> Result<Cut, String> {
        Ok(Cut {
            server: cluster.metrics()?,
            threads: corona_bench::thread_count().unwrap_or(0) as u64,
            proc: Counters::now(),
            at: Instant::now(),
        })
    }
}

/// Per-thread result of a timed phase.
struct ThreadEnd {
    at: Instant,
    cpu_secs: f64,
}

/// Members, generator threads and connections of every workload.
pub const MEMBERS: usize = 2;

/// Shared settings of a run.
pub struct RunCtx {
    pub seed: u64,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
}

/// One round of `bcast` (`replicated == false`) or `replicated`.
pub fn bcast_round(ctx: &RunCtx, replicated: bool, traced: bool) -> (Round, Result<(), String>) {
    let mut round = Round::default();
    let result = bcast_round_inner(ctx, replicated, traced, &mut round);
    (round, result)
}

fn bcast_round_inner(
    ctx: &RunCtx,
    replicated: bool,
    traced: bool,
    round: &mut Round,
) -> Result<(), String> {
    let gen = PayloadGen::new(ctx.seed, BCAST_OBJECTS);
    let n = MEMBERS;
    let timed = if replicated {
        REPLICATED_TIMED
    } else {
        BCAST_TIMED
    };
    let setup = Instant::now();
    let cluster = if replicated {
        Cluster::replicated()?
    } else {
        Cluster::single(None)?
    };
    let mut members = (0..n)
        .map(|i| Member::connect(&cluster.member_addr(i), &format!("m{i}")))
        .collect::<Result<Vec<_>, _>>()?;
    let probe_state = gen.initial_objects(PROBE_OBJECTS);
    members[0].create_group(GROUP, Persistence::Transient, SharedState::new())?;
    members[0].create_group(
        PROBE_GROUP,
        Persistence::Persistent,
        SharedState::from_objects(probe_state.iter().cloned()),
    )?;
    for m in &mut members {
        m.join(GROUP, StateTransferPolicy::None)?;
    }
    round.setup_s = setup.elapsed().as_secs_f64();

    let barrier = Barrier::new(n);
    let warm_total = n as u64 * BCAST_WARMUP;
    let all_total = n as u64 * (BCAST_WARMUP + timed);
    let run = |i: usize, m: &mut Member, cut: &mut Option<Result<Cut, String>>| {
        let mut b = Broadcaster::new(gen, GROUP, i as u32 + 1, WINDOW);
        let warm = b.pump(m, BCAST_WARMUP, warm_total);
        // Every thread passes both barriers whatever happened, so one
        // failing member cannot strand the others.
        barrier.wait();
        if i == 0 {
            *cut = Some(Cut::take(&cluster));
            if traced {
                corona_trace::clear();
                corona_trace::set_enabled(true);
            }
        }
        barrier.wait();
        let result = warm.and_then(|()| {
            let cpu0 = sys::thread_cpu_secs();
            b.timing = true;
            b.trace_every = if traced { TRACE_EVERY } else { 0 };
            b.pump(m, BCAST_WARMUP + timed, all_total)?;
            Ok(ThreadEnd {
                at: Instant::now(),
                cpu_secs: sys::thread_cpu_secs() - cpu0,
            })
        });
        (b, result)
    };
    let mut before = None;
    let (first, rest) = members.split_at_mut(1);
    let outcomes: Vec<(Broadcaster, Result<ThreadEnd, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, m)| {
                let run = &run;
                s.spawn(move || run(i + 1, m, &mut None))
            })
            .collect();
        let mut outcomes = vec![run(0, &mut first[0], &mut before)];
        for h in handles {
            outcomes.push(h.join().expect("generator thread panicked"));
        }
        outcomes
    });
    let after = Counters::now();
    if traced {
        corona_trace::set_enabled(false);
        round.spans = corona_trace::drain();
    }
    let mut ends = Vec::new();
    for (b, end) in &outcomes {
        round.attempted += b.sent;
        round.completed += b.completed;
        match end {
            Ok(end) => ends.push(end),
            Err(e) => return Err(e.clone()),
        }
    }
    // Every member must have seen the same sequence.
    let reference = &outcomes[0].0.seen;
    if reference.len() as u64 != all_total || outcomes.iter().any(|(b, _)| &b.seen != reference) {
        // No broadcast of the round counts as correct.
        round.completed = 0;
        return Err("members disagree on the group's sequence".into());
    }
    let before = before.ok_or("no phase cut taken")??;
    round.threads = before.threads;
    let end_at = ends.iter().map(|e| e.at).max().unwrap_or(before.at);
    round.bcast_secs = end_at.duration_since(before.at).as_secs_f64();
    round.bcasts = n as u64 * timed;
    round.ops = round.bcasts;
    round.gen_cpu_secs = ends.iter().map(|e| e.cpu_secs).sum();
    round.proc = Some(after.since(&before.proc));
    round.server = cluster.metrics()?.delta(&before.server);
    for (b, _) in outcomes {
        round.rtts_ns.extend(b.rtts_ns);
    }

    // The join probe, after the broadcast phase so neither disturbs
    // the other.
    let prober = &mut members[n - 1];
    let mut warm = JoinRun::default();
    probe_joins(prober, PROBE_GROUP, &probe_state, PROBE_WARMUP, &mut warm)?;
    let probed = probe_joins(
        prober,
        PROBE_GROUP,
        &probe_state,
        PROBE_JOINS,
        &mut round.joins,
    );
    round.attempted += warm.attempted + round.joins.attempted;
    round.completed += warm.completed + round.joins.completed;
    probed?;
    drop(members);
    cluster.shutdown();
    Ok(())
}

/// The `join` workload's seeded persistent store, generated once per
/// run and copied for every round, and the model of its contents.
pub struct SeedStore {
    dir: PathBuf,
    shadow: Shadow,
    policies: Vec<PolicyChoice>,
}

impl SeedStore {
    /// Writes `STORE_OBJECTS` initial objects plus `STORE_UPDATES`
    /// logged updates under `ctx.work/seed`.
    pub fn create(ctx: &RunCtx) -> Result<SeedStore, String> {
        let gen = PayloadGen::new(ctx.seed, STORE_OBJECTS);
        let dir = ctx.work.join("seed");
        let io = |e: std::io::Error| format!("seed store: {e}");
        let store = StableStore::open(&dir, SyncPolicy::OsDefault).map_err(io)?;
        let initial = SharedState::from_objects(gen.initial_objects(STORE_OBJECTS));
        let mut group = store
            .create_group(GROUP, Persistence::Persistent, &initial)
            .map_err(io)?;
        let mut shadow = Shadow::new(STORE_OBJECTS);
        for counter in 0..STORE_UPDATES {
            group
                .append_update(&LoggedUpdate {
                    seq: SeqNo::new(counter + 1),
                    sender: ClientId::new(u64::MAX),
                    timestamp: Timestamp::from_micros(counter),
                    update: gen.update(STORE_STREAM, counter),
                })
                .map_err(io)?;
            shadow.push(&gen, (STORE_STREAM, counter));
        }
        group.sync().map_err(io)?;
        Ok(SeedStore {
            dir,
            shadow,
            policies: policy_mix(ctx.seed),
        })
    }

    /// Copies the store to `to` (a fresh directory).
    fn copy_to(&self, to: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("copy seed store: {e}");
        let from = self.dir.join(format!("g{}", GROUP.raw()));
        let dest = to.join(format!("g{}", GROUP.raw()));
        std::fs::create_dir_all(&dest).map_err(io)?;
        for entry in std::fs::read_dir(&from).map_err(io)? {
            let entry = entry.map_err(io)?;
            std::fs::copy(entry.path(), dest.join(entry.file_name())).map_err(io)?;
        }
        Ok(())
    }
}

/// The seeded join-policy cycle: the five policy families in equal
/// shares (`FullState`, `LastUpdates(n)`, `Objects` with 1 to 16 ids,
/// `UpdatesSince` some updates before the previous transfer, `None`),
/// shuffled. No measurement or source gives how often clients pick
/// each policy, so equal shares are an assumption, the simplest one.
/// The counts `n` and the look-backs are spread evenly over 1..=256
/// and every object has the same size, so every seed asks for the same
/// volume of state and only the order and the object ids change.
pub fn policy_mix(seed: u64) -> Vec<PolicyChoice> {
    let gen = PayloadGen::new(seed, STORE_OBJECTS);
    let n = POLICY_MIX_LEN / 5;
    let even = |i: usize| 1 + (i as u64 * 255) / (n as u64 - 1);
    let mut rng = Rng::new(seed, 0x6a6f_696e);
    let mut mix = vec![PolicyChoice::Fixed(StateTransferPolicy::FullState); n];
    mix.extend((0..n).map(|i| PolicyChoice::Fixed(StateTransferPolicy::LastUpdates(even(i)))));
    mix.extend((0..n).map(|i| {
        let ids = (0..=i % 16)
            .map(|_| gen.object_for(rng.next_u64()))
            .collect();
        PolicyChoice::Fixed(StateTransferPolicy::Objects(ids))
    }));
    mix.extend((0..n).map(|i| PolicyChoice::SinceBack(even(i))));
    mix.resize(
        POLICY_MIX_LEN,
        PolicyChoice::Fixed(StateTransferPolicy::None),
    );
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.below(i as u64 + 1) as usize);
    }
    mix
}

/// One round of the `join` workload; `index` names its directory.
pub fn join_round(
    ctx: &RunCtx,
    seed: &SeedStore,
    index: usize,
    traced: bool,
) -> (Round, Result<(), String>) {
    let mut round = Round::default();
    let dir = ctx.work.join(format!("round-{index}"));
    let result = seed
        .copy_to(&dir)
        .and_then(|()| join_round_inner(ctx, seed, &dir, traced, &mut round));
    let _ = std::fs::remove_dir_all(&dir);
    (round, result)
}

fn join_round_inner(
    ctx: &RunCtx,
    seed: &SeedStore,
    dir: &Path,
    traced: bool,
    round: &mut Round,
) -> Result<(), String> {
    let gen = PayloadGen::new(ctx.seed, STORE_OBJECTS);
    let setup = Instant::now();
    let cluster = Cluster::single(Some(dir))?;
    let addr = cluster.member_addr(0);
    let mut writer = Member::connect(&addr, "writer")?;
    let (_, transfer) = writer.join(GROUP, StateTransferPolicy::None)?;
    let mut joiner = Member::connect(&addr, "joiner")?;
    round.setup_s = setup.elapsed().as_secs_f64();
    if transfer.through.raw() != STORE_UPDATES {
        return Err(format!(
            "recovered group ends at {} instead of {STORE_UPDATES}",
            transfer.through
        ));
    }

    let shadow = SharedShadow::new(seed.shadow.clone());
    let permits = AtomicU64::new(0);
    let barrier = Barrier::new(2);
    let mut b = Broadcaster::new(gen, GROUP, 1, WINDOW);
    b.base = STORE_UPDATES;
    let mut warm = JoinRun::default();
    let (writer_result, joiner_live, joiner_result, before) = std::thread::scope(|s| {
        let (shadow, permits, barrier) = (&shadow, &permits, &barrier);
        let b = &mut b;
        let writer_thread = s.spawn(move || {
            let warm = write_gated(
                b,
                &mut writer,
                shadow,
                permits,
                WRITES_PER_JOIN * JOIN_WARMUP,
            );
            barrier.wait();
            barrier.wait();
            warm.and_then(|()| {
                let cpu0 = sys::thread_cpu_secs();
                b.timing = true;
                b.trace_every = if traced {
                    TRACE_EVERY / WRITES_PER_JOIN
                } else {
                    0
                };
                let total = WRITES_PER_JOIN * (JOIN_WARMUP + JOIN_TIMED);
                write_gated(b, &mut writer, shadow, permits, total)?;
                Ok(ThreadEnd {
                    at: Instant::now(),
                    cpu_secs: sys::thread_cpu_secs() - cpu0,
                })
            })
        });
        // A joiner that fails grants every remaining write, so the
        // writer finishes its quota instead of waiting forever.
        let release = || {
            permits.store(u64::MAX, std::sync::atomic::Ordering::SeqCst);
            writer_thread.thread().unpark();
        };
        let mut j = Joiner {
            gen,
            group: GROUP,
            policies: &seed.policies,
            shadow,
            permits,
            writes_per_join: WRITES_PER_JOIN,
            writer: writer_thread.thread().clone(),
            live: Vec::new(),
            next_policy: 0,
            last_through: STORE_UPDATES,
        };
        let warmed = j.run(&mut joiner, JOIN_WARMUP, &mut warm);
        if warmed.is_err() {
            release();
        }
        barrier.wait();
        let before = Cut::take(&cluster);
        if traced {
            corona_trace::clear();
            corona_trace::set_enabled(true);
        }
        barrier.wait();
        let joined = warmed.and_then(|()| {
            let cpu0 = sys::thread_cpu_secs();
            j.run(&mut joiner, JOIN_TIMED, &mut round.joins)?;
            Ok(ThreadEnd {
                at: Instant::now(),
                cpu_secs: sys::thread_cpu_secs() - cpu0,
            })
        });
        if joined.is_err() {
            release();
        }
        let writer_result = writer_thread.join().expect("writer thread panicked");
        let live = j.check_live();
        (writer_result, live, joined, before)
    });
    let after = Counters::now();
    if traced {
        corona_trace::set_enabled(false);
        round.spans = corona_trace::drain();
    }
    round.attempted = b.sent + warm.attempted + round.joins.attempted;
    round.completed = b.completed + warm.completed + round.joins.completed;
    let writer_end = writer_result?;
    let joiner_end = joiner_result?;
    if let Err(e) = joiner_live {
        // The live stream is checked as a whole: no operation of the
        // round counts as correct.
        round.completed = 0;
        return Err(e);
    }
    let before = before?;
    round.threads = before.threads;
    let end_at = writer_end.at.max(joiner_end.at);
    round.bcast_secs = end_at.duration_since(before.at).as_secs_f64();
    round.bcasts = WRITES_PER_JOIN * JOIN_TIMED;
    round.ops = round.bcasts + JOIN_TIMED;
    round.gen_cpu_secs = writer_end.cpu_secs + joiner_end.cpu_secs;
    round.proc = Some(after.since(&before.proc));
    round.server = cluster.metrics()?.delta(&before.server);
    round.rtts_ns = std::mem::take(&mut b.rtts_ns);
    drop((joiner, shadow));
    cluster.shutdown();
    Ok(())
}

/// Runs `n` rounds of `workload`; `traced(i)` says whether round `i`
/// records spans. Stops at the first failing round.
pub fn run_rounds(
    ctx: &RunCtx,
    workload: &str,
    n: usize,
    traced: impl Fn(usize) -> bool,
) -> (Vec<Round>, Result<(), String>) {
    let seed_store = if workload == "join" {
        match SeedStore::create(ctx) {
            Ok(s) => Some(s),
            Err(e) => return (Vec::new(), Err(e)),
        }
    } else {
        None
    };
    let mut done: Vec<Round> = Vec::new();
    for i in 0..n {
        let started = Instant::now();
        let (steal0, total0) = sys::host_steal_total();
        let (mut round, result) = match &seed_store {
            Some(store) => join_round(ctx, store, i, traced(i)),
            None => bcast_round(ctx, workload == "replicated", traced(i)),
        };
        let (steal1, total1) = sys::host_steal_total();
        round.host_steal = steal1 - steal0;
        round.host_total = total1 - total0;
        round.wall_s = started.elapsed().as_secs_f64();
        if i == 0 {
            // Later rounds start fresh servers in the same process and
            // inherit the allocator's retained memory; the first
            // round's high-water mark is one server lifetime's.
            round.peak_rss_mib = sys::peak_rss_mib();
        }
        done.push(round);
        if let Err(e) = result {
            return (done, Err(format!("{workload} round {i}: {e}")));
        }
    }
    (done, Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed asks for the same volume of state; only the order and
    /// the object ids differ.
    #[test]
    fn policy_mix_volume_is_the_same_for_every_seed() {
        let volume = |seed: u64| {
            let mut counts = [0u64; 5];
            for choice in policy_mix(seed) {
                match choice {
                    PolicyChoice::Fixed(StateTransferPolicy::FullState) => counts[0] += 1,
                    PolicyChoice::Fixed(StateTransferPolicy::LastUpdates(n)) => counts[1] += n,
                    PolicyChoice::Fixed(StateTransferPolicy::Objects(ids)) => {
                        counts[2] += ids.len() as u64
                    }
                    PolicyChoice::SinceBack(back) => counts[3] += back,
                    PolicyChoice::Fixed(_) => counts[4] += 1,
                }
            }
            counts
        };
        let first = volume(1);
        assert_eq!(first[0], 100);
        assert_eq!(first[4], 100);
        for seed in 2..10 {
            assert_eq!(volume(seed), first);
        }
        assert_ne!(policy_mix(1)[..20], policy_mix(2)[..20]);
    }
}
