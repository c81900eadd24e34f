//! The replay harness of the traced run: a workload's generated inputs
//! fed straight into each crate's public functions, every call timed
//! from here. Nothing inside the program is instrumented.

use crate::drive::PolicyChoice;
use crate::gen::PayloadGen;
use crate::report::quantile_us;
use crate::sys;
use crate::workload::{
    policy_mix, BCAST_OBJECTS, BCAST_TIMED, GROUP, JOIN_TIMED, PROBE_GROUP, PROBE_OBJECTS,
    REPLICATED_TIMED, STORE_OBJECTS, STORE_STREAM, STORE_UPDATES, WRITES_PER_JOIN,
};
use bytes::Bytes;
use corona_core::{ServerConfig, ServerCore};
use corona_membership::GroupRegistry;
use corona_replication::{CoordEffect, CoordinatorCore, ReplicaCore, ReplicaEffect};
use corona_statelog::{GroupLog, StableStore, SyncPolicy};
use corona_transport::{Dialer, Listener, ReactorDialer, ReactorListener};
use corona_types::frame::{read_frame, write_frame};
use corona_types::id::{ClientId, Epoch, GroupId, SeqNo, ServerId};
use corona_types::message::{ClientRequest, PeerMessage, ServerEvent, StateTransfer};
use corona_types::policy::{
    DeliveryScope, MemberInfo, MemberRole, Persistence, StateTransferPolicy,
};
use corona_types::state::{LoggedUpdate, SharedState, StateUpdate, Timestamp};
use corona_types::wire::{decode_traced, encode_traced};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Frames echoed through the reactor.
const ECHO_FRAMES: usize = 2_000;
/// Join/leave pairs replayed through the group registry.
const REGISTRY_JOINS: u64 = 20_000;

/// One replayed per-layer figure: name, value, unit.
pub type Figure = (&'static str, f64, &'static str);

/// A workload's generated inputs, as the replay sees them.
struct Inputs {
    seed: u64,
    /// The broadcasts of one timed phase, in send order.
    updates: Vec<StateUpdate>,
    /// The data group's log before those broadcasts.
    log0: GroupLog,
    /// The join group's log and the joins made on it.
    join_log: GroupLog,
    joins: Vec<StateTransferPolicy>,
}

fn inputs(workload: &str, seed: u64) -> Inputs {
    if workload == "join" {
        let gen = PayloadGen::new(seed, STORE_OBJECTS);
        let mut log0 = GroupLog::new(
            GROUP,
            SharedState::from_objects(gen.initial_objects(STORE_OBJECTS)),
        );
        for counter in 0..STORE_UPDATES {
            log0.append(
                ClientId::new(u64::MAX),
                gen.update(STORE_STREAM, counter),
                Timestamp::ZERO,
            );
        }
        let updates: Vec<StateUpdate> = (0..WRITES_PER_JOIN * JOIN_TIMED)
            .map(|c| gen.update(1, c))
            .collect();
        let mut join_log = log0.clone();
        for u in &updates {
            join_log.append(ClientId::new(1), u.clone(), Timestamp::ZERO);
        }
        let joins = resolve(&policy_mix(seed), join_log.last_seq(), JOIN_TIMED as usize);
        Inputs {
            seed,
            updates,
            log0,
            join_log,
            joins,
        }
    } else {
        let gen = PayloadGen::new(seed, BCAST_OBJECTS);
        let timed = if workload == "replicated" {
            REPLICATED_TIMED
        } else {
            BCAST_TIMED
        };
        let updates = (0..timed)
            .flat_map(|c| [gen.update(1, c), gen.update(2, c)])
            .collect();
        let probe = SharedState::from_objects(gen.initial_objects(PROBE_OBJECTS));
        Inputs {
            seed,
            updates,
            log0: GroupLog::new(GROUP, SharedState::new()),
            join_log: GroupLog::new(PROBE_GROUP, probe),
            joins: vec![StateTransferPolicy::FullState; JOIN_TIMED as usize],
        }
    }
}

/// The first `n` policies of the cycle, `UpdatesSince` resolved
/// against `last`.
fn resolve(mix: &[PolicyChoice], last: SeqNo, n: usize) -> Vec<StateTransferPolicy> {
    mix.iter()
        .cycle()
        .take(n)
        .map(|c| c.resolve(last.raw()))
        .collect()
}

fn ns_per(elapsed: Duration, n: usize) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

/// Runs every replay for `workload` and returns the figures.
pub fn run(workload: &str, seed: u64, work: &Path) -> Result<Vec<Figure>, String> {
    let inputs = inputs(workload, seed);
    let mut out = Vec::new();
    let logged = statelog(&inputs, work, &mut out)?;
    types(&inputs, &logged, &mut out);
    core(&inputs, workload, &mut out);
    membership(&mut out);
    replication(&inputs, &mut out);
    out.push(("transport.frame_echo_us_p50", frame_echo(&inputs)?, "us"));
    Ok(out)
}

/// `GroupLog::append` and `transfer`, and the stable store's append
/// and recovery. Returns the logged form of the workload's updates.
fn statelog(
    inputs: &Inputs,
    work: &Path,
    out: &mut Vec<Figure>,
) -> Result<Vec<LoggedUpdate>, String> {
    let n = inputs.updates.len();
    let sender = ClientId::new(1);

    // Retained heap bytes per logged update, payload copies included
    // (the server owns the payloads it decodes).
    let mut log = inputs.log0.clone();
    let live0 = sys::live_bytes();
    for u in &inputs.updates {
        let owned = StateUpdate {
            payload: Bytes::copy_from_slice(&u.payload),
            ..u.clone()
        };
        black_box(log.append(sender, owned, Timestamp::ZERO));
    }
    let rss_per_update = (sys::live_bytes() - live0) as f64 / n.max(1) as f64;
    drop(log);

    let mut log = inputs.log0.clone();
    let started = Instant::now();
    for u in &inputs.updates {
        black_box(log.append(sender, u.clone(), Timestamp::ZERO));
    }
    out.push((
        "statelog.memlog_append_ns",
        ns_per(started.elapsed(), n),
        "ns",
    ));
    out.push(("statelog.rss_bytes_per_update", rss_per_update, "B"));

    // Transfers under each policy family of the join mix, evaluated on
    // the data group's log after the phase's updates.
    let mix = resolve(
        &policy_mix(inputs.seed),
        log.last_seq(),
        JOIN_TIMED as usize,
    );
    let mut sums = [(0u128, 0usize); 4];
    for policy in &mix {
        let slot = match policy {
            StateTransferPolicy::FullState => 0,
            StateTransferPolicy::LastUpdates(_) => 1,
            StateTransferPolicy::Objects(_) => 2,
            StateTransferPolicy::UpdatesSince(_) => 3,
            StateTransferPolicy::None => continue,
        };
        let started = Instant::now();
        black_box(log.transfer(policy));
        sums[slot].0 += started.elapsed().as_nanos();
        sums[slot].1 += 1;
    }
    for (name, (ns, count)) in [
        "statelog.transfer_us.full",
        "statelog.transfer_us.last_n",
        "statelog.transfer_us.objects",
        "statelog.transfer_us.since",
    ]
    .into_iter()
    .zip(sums)
    {
        out.push((name, ns as f64 / count.max(1) as f64 / 1_000.0, "us"));
    }

    // The stable store: per-record append, then full recovery.
    let dir = work.join("replay-store");
    let io = |e: std::io::Error| format!("replay store: {e}");
    let logged: Vec<LoggedUpdate> = log.suffix_iter().cloned().collect();
    let store = StableStore::open(&dir, SyncPolicy::OsDefault).map_err(io)?;
    let mut group = store
        .create_group(GROUP, Persistence::Persistent, log.checkpoint_state())
        .map_err(io)?;
    let mut append_ns = Vec::with_capacity(logged.len());
    for u in &logged {
        let started = Instant::now();
        group.append_update(u).map_err(io)?;
        append_ns.push(started.elapsed().as_nanos() as u64);
    }
    group.sync().map_err(io)?;
    drop(group);
    let started = Instant::now();
    let recovered = store.recover_group(GROUP).map_err(io)?;
    let replay_ms = started.elapsed().as_secs_f64() * 1_000.0;
    if recovered.map(|(r, _)| r.log.last_seq()) != Some(log.last_seq()) {
        return Err("replayed store recovered a different log".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.push((
        "statelog.store_append_us_p50",
        quantile_us(&append_ns, 0.5),
        "us",
    ));
    out.push(("statelog.replay_ms", replay_ms, "ms"));
    // Only the phase's own updates go on to the other replays.
    let skip = logged.len() - n;
    Ok(logged.into_iter().skip(skip).collect())
}

/// Encoding, decoding and framing of the phase's requests and the
/// events they produce (on `join`, the `Joined` transfers too).
fn types(inputs: &Inputs, logged: &[LoggedUpdate], out: &mut Vec<Figure>) {
    let requests: Vec<ClientRequest> = inputs
        .updates
        .iter()
        .map(|u| ClientRequest::Broadcast {
            group: GROUP,
            update: u.clone(),
            scope: DeliveryScope::SenderInclusive,
        })
        .collect();
    let mut events: Vec<ServerEvent> = logged
        .iter()
        .map(|l| ServerEvent::Multicast {
            group: GROUP,
            logged: l.clone(),
        })
        .collect();
    events.extend(inputs.joins.iter().map(|p| ServerEvent::Joined {
        members: Vec::new(),
        transfer: inputs.join_log.transfer(p),
    }));
    let msgs = requests.len() + events.len();

    let started = Instant::now();
    let mut bodies: Vec<Bytes> = requests.iter().map(|r| encode_traced(r, None)).collect();
    let events_from = bodies.len();
    bodies.extend(events.iter().map(|e| encode_traced(e, None)));
    out.push((
        "types.encode_ns_per_msg",
        ns_per(started.elapsed(), msgs),
        "ns",
    ));

    let started = Instant::now();
    for b in &bodies[..events_from] {
        black_box(decode_traced::<ClientRequest>(b).expect("replayed request decodes"));
    }
    for b in &bodies[events_from..] {
        black_box(decode_traced::<ServerEvent>(b).expect("replayed event decodes"));
    }
    out.push((
        "types.decode_ns_per_msg",
        ns_per(started.elapsed(), msgs),
        "ns",
    ));

    let bytes: usize = bodies.iter().map(Bytes::len).sum();
    let mut wire = Vec::with_capacity(bytes + 8 * bodies.len());
    let started = Instant::now();
    for b in &bodies {
        write_frame(&mut wire, b).expect("writing to a Vec cannot fail");
    }
    let mut reader = wire.as_slice();
    while let Some(frame) = read_frame(&mut reader).expect("replayed frame reads") {
        black_box(frame);
    }
    let kib = bytes as f64 / 1024.0;
    out.push((
        "types.frame_ns_per_kib",
        started.elapsed().as_nanos() as f64 / kib.max(1.0),
        "ns/KiB",
    ));
}

/// `ServerCore::handle_request` for the phase's broadcasts, and for
/// the workload's joins (each followed by an untimed leave).
fn core(inputs: &Inputs, workload: &str, out: &mut Vec<Figure>) {
    let config = ServerConfig::stateful(ServerId::new(1));
    let mut core = ServerCore::new(&config);
    let now = Timestamp::ZERO;
    let hello = |core: &mut ServerCore, name: &str| core.client_hello(name.into(), None).0;
    let (a, b, j) = (
        hello(&mut core, "a"),
        hello(&mut core, "b"),
        hello(&mut core, "j"),
    );
    if workload == "join" {
        core.install_recovered(Persistence::Persistent, inputs.log0.clone());
    } else {
        core.handle_request(
            a,
            ClientRequest::CreateGroup {
                group: GROUP,
                persistence: Persistence::Transient,
                initial_state: SharedState::new(),
            },
            now,
        );
        core.handle_request(
            a,
            ClientRequest::CreateGroup {
                group: PROBE_GROUP,
                persistence: Persistence::Persistent,
                initial_state: inputs.join_log.current_state().clone(),
            },
            now,
        );
    }
    for c in [a, b] {
        core.handle_request(c, join(GROUP, StateTransferPolicy::None), now);
    }
    let started = Instant::now();
    for (i, u) in inputs.updates.iter().enumerate() {
        let request = ClientRequest::Broadcast {
            group: GROUP,
            update: u.clone(),
            scope: DeliveryScope::SenderInclusive,
        };
        black_box(core.handle_request(if i % 2 == 0 { a } else { b }, request, now));
    }
    out.push((
        "core.handle_broadcast_ns",
        ns_per(started.elapsed(), inputs.updates.len()),
        "ns",
    ));

    let group = inputs.join_log.group();
    let mut total = Duration::ZERO;
    for policy in &inputs.joins {
        let started = Instant::now();
        black_box(core.handle_request(j, join(group, policy.clone()), now));
        total += started.elapsed();
        core.handle_request(j, ClientRequest::Leave { group }, now);
    }
    out.push((
        "core.handle_join_us",
        ns_per(total, inputs.joins.len()) / 1_000.0,
        "us",
    ));
}

fn join(group: GroupId, policy: StateTransferPolicy) -> ClientRequest {
    crate::member::join_request(group, policy)
}

/// `GroupRegistry::join` + `leave` beside one standing member.
fn membership(out: &mut Vec<Figure>) {
    let mut registry = GroupRegistry::new();
    registry
        .create(GROUP, Persistence::Persistent)
        .expect("fresh registry");
    registry
        .join(
            GROUP,
            MemberInfo::new(ClientId::new(1), MemberRole::Principal, "writer"),
            false,
        )
        .expect("first member");
    let joiner = ClientId::new(2);
    let started = Instant::now();
    for _ in 0..REGISTRY_JOINS {
        let info = MemberInfo::new(joiner, MemberRole::Principal, "joiner");
        black_box(registry.join(GROUP, info, false).is_ok());
        black_box(registry.leave(GROUP, joiner).is_ok());
    }
    out.push((
        "membership.join_leave_ns",
        ns_per(started.elapsed(), REGISTRY_JOINS as usize),
        "ns",
    ));
}

/// `CoordinatorCore::handle_peer` sequencing the phase's forwarded
/// broadcasts from followers 2 and 3, then `ReplicaCore::handle_peer`
/// applying the `Sequenced` stream bound for follower 2.
fn replication(inputs: &Inputs, out: &mut Vec<Figure>) {
    let now = Timestamp::ZERO;
    let (s2, s3) = (ServerId::new(2), ServerId::new(3));
    let (c2, c3) = (ClientId::new(2), ClientId::new(3));
    let mut coord = CoordinatorCore::new(
        &ServerConfig::stateful(ServerId::new(1)),
        Epoch::ZERO.next(),
    );
    let forward = |origin, client, local_tag, request| PeerMessage::ForwardRequest {
        origin,
        client,
        local_tag,
        request,
    };
    let hello = |name: &str| ClientRequest::Hello {
        version: corona_types::message::PROTOCOL_VERSION,
        display_name: name.into(),
        resume: None,
    };
    coord.handle_peer(forward(s2, c2, 1, hello("a")), now);
    coord.handle_peer(forward(s3, c3, 1, hello("b")), now);
    coord.handle_peer(
        forward(
            s2,
            c2,
            2,
            ClientRequest::CreateGroup {
                group: GROUP,
                persistence: Persistence::Transient,
                initial_state: SharedState::new(),
            },
        ),
        now,
    );
    coord.handle_peer(
        forward(s2, c2, 3, join(GROUP, StateTransferPolicy::None)),
        now,
    );
    coord.handle_peer(
        forward(s3, c3, 2, join(GROUP, StateTransferPolicy::None)),
        now,
    );

    let mut to_s2 = Vec::with_capacity(inputs.updates.len());
    let started = Instant::now();
    for (i, u) in inputs.updates.iter().enumerate() {
        let (origin, sender) = if i % 2 == 0 { (s2, c2) } else { (s3, c3) };
        let effects = coord.handle_peer(
            PeerMessage::ForwardBroadcast {
                origin,
                sender,
                group: GROUP,
                update: u.clone(),
                scope: DeliveryScope::SenderInclusive,
                local_tag: 100 + i as u64,
            },
            now,
        );
        for e in effects {
            if let CoordEffect::ToServer { to, msg } = e {
                if to == s2 {
                    to_s2.push(msg);
                }
            }
        }
    }
    out.push((
        "replication.coord_forward_ns",
        ns_per(started.elapsed(), inputs.updates.len()),
        "ns",
    ));

    let mut replica = ReplicaCore::new(s2);
    let (client, _) = replica.client_hello("a".into(), None);
    let tag = replica
        .handle_request(client, join(GROUP, StateTransferPolicy::None), now)
        .into_iter()
        .find_map(|e| match e {
            ReplicaEffect::ToCoordinator(PeerMessage::ForwardRequest { local_tag, .. }) => {
                Some(local_tag)
            }
            _ => None,
        })
        .unwrap_or(0);
    replica.handle_peer(PeerMessage::RequestOutcome {
        origin: s2,
        local_tag: tag,
        client,
        events: vec![ServerEvent::Joined {
            members: Vec::new(),
            transfer: StateTransfer::empty(GROUP, SeqNo::ZERO),
        }],
    });
    let n = to_s2.len();
    let started = Instant::now();
    for msg in to_s2 {
        black_box(replica.handle_peer(msg));
    }
    out.push((
        "replication.replica_sequenced_ns",
        ns_per(started.elapsed(), n),
        "ns",
    ));
}

/// Round trips of the phase's request frames through a
/// `ReactorDialer` connection and a `ReactorListener` one and back.
fn frame_echo(inputs: &Inputs) -> Result<f64, String> {
    let err = |e: corona_transport::TransportError| format!("frame echo: {e}");
    let listener = ReactorListener::bind("127.0.0.1:0", 1).map_err(err)?;
    let dialer = ReactorDialer::new().map_err(err)?;
    let client = dialer.dial(&listener.local_addr()).map_err(err)?;
    let server = listener.accept().map_err(err)?;
    let mut samples = Vec::with_capacity(ECHO_FRAMES);
    for u in inputs.updates.iter().take(ECHO_FRAMES) {
        let body = encode_traced(
            &ClientRequest::Broadcast {
                group: GROUP,
                update: u.clone(),
                scope: DeliveryScope::SenderInclusive,
            },
            None,
        );
        let started = Instant::now();
        client.send(body.clone()).map_err(err)?;
        let frame = server
            .recv_timeout(crate::member::REPLY_TIMEOUT)
            .map_err(err)?;
        server.send(frame).map_err(err)?;
        let echoed = client
            .recv_timeout(crate::member::REPLY_TIMEOUT)
            .map_err(err)?;
        samples.push(started.elapsed().as_nanos() as u64);
        if echoed != body {
            return Err("frame echo altered the frame".into());
        }
    }
    client.close();
    server.close();
    listener.shutdown();
    Ok(quantile_us(&samples, 0.5))
}
