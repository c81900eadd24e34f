//! The closed-loop load generators and the correctness checks they apply to
//! everything the servers send back.

use crate::gen::{PayloadGen, STREAM_INITIAL};
use crate::member::{join_request, Member, REPLY_TIMEOUT};
use crate::sys;
use bytes::Bytes;
use corona_trace::{Hop, SpanEvent, TraceId};
use corona_types::id::{GroupId, ObjectId, SeqNo};
use corona_types::message::{ClientRequest, ServerEvent, StateTransfer};
use corona_types::policy::{DeliveryScope, StateTransferPolicy};
use corona_types::wire::TraceToken;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The name of a generated update: `(stream, counter)`.
pub type Key = (u32, u64);

/// One connection's closed loop of sender-inclusive `SetState`
/// broadcasts: at most `window` own broadcasts outstanding, the next
/// sent only when the server's sequenced copy of an earlier one comes
/// back. Every delivery — own or another member's — is checked: the
/// group's sequence must be gap-free and duplicate-free, and each
/// payload byte-exact.
pub struct Broadcaster {
    pub gen: PayloadGen,
    pub group: GroupId,
    pub stream: u32,
    pub window: usize,
    /// Attach a trace token to every `trace_every`-th broadcast (0:
    /// never).
    pub trace_every: u64,
    /// Own broadcasts sent (also the next counter).
    pub sent: u64,
    /// Own broadcasts whose sequenced copy came back.
    pub completed: u64,
    pending: VecDeque<(u64, Instant, TraceId)>,
    /// The group's sequence number before the first delivery seen.
    pub base: u64,
    /// Every delivery seen, indexed by `seq - base - 1`.
    pub seen: Vec<Key>,
    /// Round trips of own broadcasts, recorded while `timing` is set.
    pub rtts_ns: Vec<u64>,
    pub timing: bool,
}

impl Broadcaster {
    pub fn new(gen: PayloadGen, group: GroupId, stream: u32, window: usize) -> Broadcaster {
        Broadcaster {
            gen,
            group,
            stream,
            window,
            trace_every: 0,
            sent: 0,
            completed: 0,
            pending: VecDeque::new(),
            base: 0,
            seen: Vec::new(),
            rtts_ns: Vec::new(),
            timing: false,
        }
    }

    /// Sends the next own broadcast.
    pub fn send_next(&mut self, m: &mut Member) -> Result<(), String> {
        let counter = self.sent;
        let traced = self.trace_every > 0 && counter.is_multiple_of(self.trace_every);
        let (token, trace) = if traced {
            let id = corona_trace::next_trace_id();
            let now = corona_trace::now_us();
            corona_trace::record_at(SpanEvent {
                trace: id,
                hop: Hop::ClientSubmit,
                ts_us: now,
                dur_us: 0,
                arg: 0,
            });
            (
                Some(TraceToken {
                    id: id.0,
                    origin_us: now,
                }),
                id,
            )
        } else {
            (None, TraceId::NONE)
        };
        let request = ClientRequest::Broadcast {
            group: self.group,
            update: self.gen.update(self.stream, counter),
            scope: DeliveryScope::SenderInclusive,
        };
        self.pending.push_back((counter, Instant::now(), trace));
        self.sent += 1;
        m.send(&request, token)
    }

    /// Checks and records one event received on the connection.
    /// Returns the delivered key for a multicast of this group.
    pub fn on_event(&mut self, event: ServerEvent) -> Result<Option<(SeqNo, Key)>, String> {
        // The round trip ends here, when the event is decoded: the
        // checks below are the benchmark's work, not the program's.
        let arrived = Instant::now();
        let arrived_us = corona_trace::now_us();
        let (group, logged) = match event {
            ServerEvent::Multicast { group, logged } => (group, logged),
            ServerEvent::Error { code, detail } => {
                return Err(format!("server error {code}: {detail}"))
            }
            _ => return Ok(None),
        };
        if group != self.group {
            return Err(format!("multicast for {group} on a {} member", self.group));
        }
        let expected = self.base + self.seen.len() as u64 + 1;
        if logged.seq.raw() != expected {
            return Err(format!(
                "{group}: got seq {} where {expected} was next (gap or duplicate)",
                logged.seq
            ));
        }
        let key = sys::timed_check(|| self.gen.check_update(&logged.update))?;
        self.seen.push(key);
        if key.0 == self.stream {
            let (counter, sent_at, trace) = self
                .pending
                .pop_front()
                .ok_or_else(|| format!("own update {key:?} delivered but none outstanding"))?;
            if counter != key.1 {
                return Err(format!(
                    "own updates reordered: {} delivered before {counter}",
                    key.1
                ));
            }
            if self.timing {
                self.rtts_ns
                    .push(arrived.duration_since(sent_at).as_nanos() as u64);
            }
            if trace.is_some() {
                corona_trace::record_at(SpanEvent {
                    trace,
                    hop: Hop::ClientDeliver,
                    ts_us: arrived_us,
                    dur_us: 0,
                    arg: 0,
                });
            }
            self.completed += 1;
        }
        Ok(Some((logged.seq, key)))
    }

    /// Runs the loop until `send_to` own broadcasts were sent and the
    /// group's first `recv_to` deliveries (all senders) were seen.
    pub fn pump(&mut self, m: &mut Member, send_to: u64, recv_to: u64) -> Result<(), String> {
        while self.sent < send_to || (self.seen.len() as u64) < recv_to {
            while self.sent < send_to && self.pending.len() < self.window {
                self.send_next(m)?;
            }
            let (event, _) = m.recv()?;
            self.on_event(event)?;
        }
        Ok(())
    }

    /// Whether every own broadcast has come back.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
    }
}

/// The benchmark's model of a persistent group's log: which update
/// holds each sequence number, and each object's write history.
#[derive(Debug, Clone, Default)]
pub struct Shadow {
    /// `by_seq[s - 1]` names the update sequenced at `s`.
    by_seq: Vec<Key>,
    /// Per object id: `(seq, key)` of every write, ascending; seq 0 is
    /// the group's initial state.
    by_object: Vec<Vec<(u64, Key)>>,
}

impl Shadow {
    /// A group created with objects `1..=objects` (initial stream).
    pub fn new(objects: u64) -> Shadow {
        let mut by_object = vec![Vec::new(); objects as usize + 1];
        for (id, history) in by_object.iter_mut().enumerate().skip(1) {
            history.push((0, (STREAM_INITIAL, id as u64)));
        }
        Shadow {
            by_seq: Vec::new(),
            by_object,
        }
    }

    /// The newest sequence number modelled.
    pub fn head(&self) -> u64 {
        self.by_seq.len() as u64
    }

    /// Records update `key` at the next sequence number.
    pub fn push(&mut self, gen: &PayloadGen, key: Key) {
        self.by_seq.push(key);
        let seq = self.head();
        let object = gen.object(key.0, key.1).raw() as usize;
        self.by_object[object].push((seq, key));
    }

    /// The update sequenced at `seq`.
    pub fn at(&self, seq: u64) -> Option<Key> {
        seq.checked_sub(1)
            .and_then(|i| self.by_seq.get(i as usize).copied())
    }

    /// The update that set `object` as of `seq`.
    fn object_at(&self, object: ObjectId, seq: u64) -> Option<Key> {
        let history = self.by_object.get(object.raw() as usize)?;
        let idx = history.partition_point(|(s, _)| *s <= seq);
        history.get(idx.checked_sub(1)?).map(|(_, key)| *key)
    }

    /// Checks a `Joined` transfer produced under `policy` against the
    /// model: basis and through, the object set and bytes, and update
    /// runs contiguous and ending at `through`.
    pub fn check_transfer(
        &self,
        gen: &PayloadGen,
        policy: &StateTransferPolicy,
        t: &StateTransfer,
    ) -> Result<(), String> {
        let through = t.through.raw();
        let fail = |what: &str| Err(format!("{policy} transfer through {through}: {what}"));
        if through > self.head() {
            return fail("through is beyond the modelled log");
        }
        let expect_objects = |ids: &mut dyn Iterator<Item = ObjectId>| -> Result<(), String> {
            let mut n = 0;
            for id in ids {
                let Some(want) = self.object_at(id, through) else {
                    continue;
                };
                match t.objects.get(n) {
                    Some((got_id, got)) if *got_id == id && gen.matches(want.0, want.1, got) => {
                        n += 1
                    }
                    _ => return Err(format!("{policy} transfer: object {id} wrong or missing")),
                }
            }
            if n != t.objects.len() {
                return Err(format!("{policy} transfer: unexpected extra objects"));
            }
            Ok(())
        };
        match policy {
            StateTransferPolicy::FullState => {
                if t.basis != t.through || !t.updates.is_empty() {
                    return fail("full state must carry objects only, at through");
                }
                let objects = self.by_object.len() as u64;
                expect_objects(&mut (1..objects).map(ObjectId::new))
            }
            StateTransferPolicy::Objects(ids) => {
                if t.basis != t.through || !t.updates.is_empty() {
                    return fail("object transfer must carry objects only, at through");
                }
                expect_objects(&mut ids.iter().copied())
            }
            StateTransferPolicy::LastUpdates(n) => {
                let want = (*n).min(through);
                if t.updates.len() as u64 != want || !t.objects.is_empty() {
                    return fail("wrong number of updates");
                }
                self.check_run(gen, t, through - want)
            }
            StateTransferPolicy::UpdatesSince(since) => {
                if t.basis != *since || !t.objects.is_empty() {
                    return fail("basis differs from the requested point");
                }
                if t.updates.len() as u64 != through - since.raw() {
                    return fail("wrong number of updates");
                }
                self.check_run(gen, t, since.raw())
            }
            StateTransferPolicy::None => {
                if t.basis != t.through || !t.objects.is_empty() || !t.updates.is_empty() {
                    return fail("no-state transfer carried state");
                }
                Ok(())
            }
        }
    }

    /// Updates `basis+1 ..= through`, in order, each the modelled one.
    fn check_run(&self, gen: &PayloadGen, t: &StateTransfer, basis: u64) -> Result<(), String> {
        if t.basis.raw() != basis {
            return Err(format!("basis {} where {basis} was expected", t.basis));
        }
        for (i, u) in t.updates.iter().enumerate() {
            let seq = basis + 1 + i as u64;
            if u.seq.raw() != seq {
                return Err(format!("update run not contiguous at {seq}"));
            }
            let key = gen.check_update(&u.update)?;
            if self.at(seq) != Some(key) {
                return Err(format!("update at {seq} is not the one sequenced there"));
            }
        }
        Ok(())
    }
}

/// A [`Shadow`] shared between the writer, which extends it as its own
/// updates come back, and the joiner, which checks transfers against
/// it.
pub struct SharedShadow {
    pub inner: Mutex<Shadow>,
    head: AtomicU64,
}

impl SharedShadow {
    pub fn new(shadow: Shadow) -> SharedShadow {
        SharedShadow {
            head: AtomicU64::new(shadow.head()),
            inner: Mutex::new(shadow),
        }
    }

    /// Records the writer's delivery of `key` at `seq`.
    pub fn push(&self, gen: &PayloadGen, seq: SeqNo, key: Key) -> Result<(), String> {
        let mut shadow = self.inner.lock().expect("shadow lock poisoned");
        if seq.raw() != shadow.head() + 1 {
            return Err(format!("writer saw seq {seq} after {}", shadow.head()));
        }
        shadow.push(gen, key);
        // Release pairs with the Acquire in `wait_for`: a reader that
        // sees the new head also sees the pushed entry.
        self.head.store(seq.raw(), Ordering::Release);
        Ok(())
    }

    /// Waits until the model covers `seq` (the writer's copy of an
    /// update can trail a joiner's transfer that already includes it).
    pub fn wait_for(&self, seq: u64) -> Result<(), String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while self.head.load(Ordering::Acquire) < seq {
            if Instant::now() > deadline {
                return Err(format!("writer never saw seq {seq}"));
            }
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// Join latency samples and the wall time of a join phase.
#[derive(Debug, Default)]
pub struct JoinRun {
    pub lat_ns: Vec<u64>,
    pub secs: f64,
    pub attempted: u64,
    pub completed: u64,
}

/// The join probe of the `bcast` and `replicated` workloads: `n`
/// join/leave cycles on the probe group, whose state is `objects` and
/// never changes, each `FullState` transfer checked byte for byte.
pub fn probe_joins(
    m: &mut Member,
    group: GroupId,
    objects: &[(ObjectId, Bytes)],
    n: u64,
    out: &mut JoinRun,
) -> Result<(), String> {
    let started = Instant::now();
    for _ in 0..n {
        out.attempted += 1;
        let t0 = Instant::now();
        let (members, transfer) = m.join(group, StateTransferPolicy::FullState)?;
        out.lat_ns.push(t0.elapsed().as_nanos() as u64);
        if !members.iter().any(|i| i.client == m.client) {
            return Err("Joined member list lacks the joiner".into());
        }
        let same = sys::timed_check(|| {
            transfer.objects == objects
                && transfer.updates.is_empty()
                && transfer.through == SeqNo::ZERO
        });
        if !same {
            return Err("probe group transfer differs from its initial state".into());
        }
        m.leave(group)?;
        out.completed += 1;
    }
    out.secs = started.elapsed().as_secs_f64();
    Ok(())
}

/// The joiner of the `join` workload. Each cycle joins under the next
/// policy of the seeded mix, checks the transfer against the shadow
/// model, follows the live stream until its `Left` (checking it stays
/// contiguous), then grants the writer `writes_per_join` more
/// broadcasts.
pub struct Joiner<'a> {
    pub gen: PayloadGen,
    pub group: GroupId,
    pub policies: &'a [PolicyChoice],
    pub shadow: &'a SharedShadow,
    pub permits: &'a AtomicU64,
    pub writes_per_join: u64,
    pub writer: std::thread::Thread,
    /// `(seq, key)` of every live delivery, checked against the model
    /// once the round ends.
    pub live: Vec<(u64, Key)>,
    /// Index of the next policy in the cycle.
    pub next_policy: usize,
    /// `through` of the latest transfer (`UpdatesSince` counts back
    /// from it).
    pub last_through: u64,
}

/// One seeded join choice; `UpdatesSince` is resolved against the
/// joiner's previous transfer when the join is sent.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyChoice {
    Fixed(StateTransferPolicy),
    /// `UpdatesSince(previous through - back)`.
    SinceBack(u64),
}

impl PolicyChoice {
    /// The policy to send when the previous transfer ended at
    /// `last_through`.
    pub fn resolve(&self, last_through: u64) -> StateTransferPolicy {
        match self {
            PolicyChoice::Fixed(p) => p.clone(),
            PolicyChoice::SinceBack(back) => {
                StateTransferPolicy::UpdatesSince(SeqNo::new(last_through.saturating_sub(*back)))
            }
        }
    }
}

impl Joiner<'_> {
    /// Runs `n` join/leave cycles.
    pub fn run(&mut self, m: &mut Member, n: u64, out: &mut JoinRun) -> Result<(), String> {
        let started = Instant::now();
        for _ in 0..n {
            out.attempted += 1;
            let policy =
                self.policies[self.next_policy % self.policies.len()].resolve(self.last_through);
            self.next_policy += 1;
            let t0 = Instant::now();
            m.send(&join_request(self.group, policy.clone()), None)?;
            let transfer = loop {
                match m.recv()?.0 {
                    ServerEvent::Joined { members, transfer } => {
                        out.lat_ns.push(t0.elapsed().as_nanos() as u64);
                        if !members.iter().any(|i| i.client == m.client) {
                            return Err("Joined member list lacks the joiner".into());
                        }
                        break transfer;
                    }
                    ServerEvent::Error { code, detail } => {
                        return Err(format!("join refused {code}: {detail}"))
                    }
                    ServerEvent::Multicast { .. } => {
                        return Err("multicast delivered to a non-member".into())
                    }
                    _ => {}
                }
            };
            let through = transfer.through.raw();
            sys::timed_check(|| {
                self.shadow.wait_for(through)?;
                self.shadow
                    .inner
                    .lock()
                    .expect("shadow lock poisoned")
                    .check_transfer(&self.gen, &policy, &transfer)
            })?;
            self.last_through = through;
            m.send(&ClientRequest::Leave { group: self.group }, None)?;
            let mut next = through + 1;
            loop {
                match m.recv()?.0 {
                    ServerEvent::Multicast { group, logged } if group == self.group => {
                        if logged.seq.raw() != next {
                            return Err(format!(
                                "joiner got seq {} where {next} was next",
                                logged.seq
                            ));
                        }
                        let key = sys::timed_check(|| self.gen.check_update(&logged.update))?;
                        self.live.push((next, key));
                        next += 1;
                    }
                    ServerEvent::Left { .. } => break,
                    ServerEvent::Error { code, detail } => {
                        return Err(format!("leave refused {code}: {detail}"))
                    }
                    _ => {}
                }
            }
            out.completed += 1;
            self.permits
                .fetch_add(self.writes_per_join, Ordering::SeqCst);
            self.writer.unpark();
        }
        out.secs = started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Checks every live delivery against the model.
    pub fn check_live(&self) -> Result<(), String> {
        let shadow = self.shadow.inner.lock().expect("shadow lock poisoned");
        for (seq, key) in &self.live {
            if shadow.at(*seq) != Some(*key) {
                return Err(format!("joiner and writer disagree at seq {seq}"));
            }
        }
        Ok(())
    }
}

/// The writer of the `join` workload: a [`Broadcaster`] whose sends
/// are gated by the joiner's permits, so each join is matched by a
/// fixed number of writes.
pub fn write_gated(
    b: &mut Broadcaster,
    m: &mut Member,
    shadow: &SharedShadow,
    permits: &AtomicU64,
    send_to: u64,
) -> Result<(), String> {
    loop {
        let allowed = permits.load(Ordering::SeqCst).min(send_to);
        while b.sent < allowed && !window_full(b) {
            b.send_next(m)?;
        }
        if b.sent >= send_to && b.idle() {
            return Ok(());
        }
        if b.idle() {
            // Nothing in flight and no permit: wait for the joiner.
            std::thread::park_timeout(Duration::from_millis(1));
            continue;
        }
        let (event, _) = m.recv()?;
        if let Some((seq, key)) = b.on_event(event)? {
            shadow.push(&b.gen, seq, key)?;
        }
    }
}

fn window_full(b: &Broadcaster) -> bool {
    b.pending.len() >= b.window
}

#[cfg(test)]
mod tests {
    use super::*;
    use corona_statelog::GroupLog;
    use corona_types::id::ClientId;
    use corona_types::state::{SharedState, Timestamp};

    /// The model agrees with the real log's transfers under every
    /// policy, and notices a transfer that differs from it.
    #[test]
    fn shadow_accepts_real_transfers_and_rejects_altered_ones() {
        let gen = PayloadGen::new(5, 32);
        let group = GroupId::new(1);
        let mut log = GroupLog::new(group, SharedState::from_objects(gen.initial_objects(32)));
        let mut shadow = Shadow::new(32);
        for counter in 0..300 {
            log.append(ClientId::new(1), gen.update(1, counter), Timestamp::ZERO);
            shadow.push(&gen, (1, counter));
        }
        let policies = [
            StateTransferPolicy::FullState,
            StateTransferPolicy::LastUpdates(40),
            StateTransferPolicy::LastUpdates(1_000),
            StateTransferPolicy::Objects(vec![ObjectId::new(3), ObjectId::new(1)]),
            StateTransferPolicy::UpdatesSince(SeqNo::new(250)),
            StateTransferPolicy::None,
        ];
        for policy in &policies {
            let transfer = log.transfer(policy);
            assert_eq!(
                shadow.check_transfer(&gen, policy, &transfer),
                Ok(()),
                "{policy}"
            );
        }

        let mut stale = log.transfer(&StateTransferPolicy::FullState);
        stale.objects[4].1 = gen.payload(1, 0);
        assert!(shadow
            .check_transfer(&gen, &StateTransferPolicy::FullState, &stale)
            .is_err());
        let mut gap = log.transfer(&StateTransferPolicy::LastUpdates(40));
        gap.updates.remove(10);
        assert!(shadow
            .check_transfer(&gen, &StateTransferPolicy::LastUpdates(40), &gap)
            .is_err());
        let mut early = log.transfer(&StateTransferPolicy::UpdatesSince(SeqNo::new(250)));
        early.basis = SeqNo::new(249);
        assert!(shadow
            .check_transfer(
                &gen,
                &StateTransferPolicy::UpdatesSince(SeqNo::new(250)),
                &early
            )
            .is_err());
    }
}
