//! The broker: topic registry, consumer-group coordination, and the
//! fault-injection hook used to exercise real failure schedules in tests.

use crate::topic::{Topic, DEFAULT_RETENTION};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::{Counter, CounterFamily, Registry, Span};

/// Bus errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// Topic already exists.
    TopicExists(String),
    /// Topic does not exist.
    NoSuchTopic(String),
    /// The target partition is at capacity and its head is pinned by a
    /// consumer group's committed offset; the producer should back off and
    /// retry after roughly `retry_after_ms`.
    Full {
        /// Topic that rejected the append.
        topic: String,
        /// Suggested producer backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The operation was failed deliberately by the active [`FaultPlan`]
    /// (the string names the injected fault, e.g. `"drop"`).
    Injected(&'static str),
    /// An offset commit was failed deliberately by the active
    /// [`FaultPlan`]; the consumer's in-memory positions are untouched and
    /// the commit can simply be retried.
    CommitFailed,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::TopicExists(t) => write!(f, "topic '{t}' already exists"),
            BusError::NoSuchTopic(t) => write!(f, "no such topic '{t}'"),
            BusError::Full {
                topic,
                retry_after_ms,
            } => write!(
                f,
                "topic '{topic}' is full (commit floor pins retention); retry after {retry_after_ms}ms"
            ),
            BusError::Injected(what) => write!(f, "injected fault: {what}"),
            BusError::CommitFailed => write!(f, "offset commit failed (injected fault)"),
        }
    }
}

impl std::error::Error for BusError {}

/// A deterministic fault-injection schedule applied broker-wide.
///
/// Counters are sequence-based (every Nth operation), so a given plan plus
/// a given workload produces the same fault schedule on every run — tests
/// assert exact outcomes instead of retrying until flaky.
///
/// ```
/// use logbus::{Broker, FaultPlan, Producer, BusError};
///
/// let broker = Broker::new();
/// broker.create_topic("t", 1).unwrap();
/// broker.inject_faults(FaultPlan::new().drop_every(2));
///
/// let p = Producer::new(&broker);
/// assert!(p.send("t", None, "delivered").is_ok());
/// // Second send hits the drop fault: the record is NOT appended, the
/// // producer sees an error and can retry (at-least-once, not silent loss).
/// assert_eq!(p.send("t", None, "dropped"), Err(BusError::Injected("drop")));
/// assert!(p.send("t", None, "delivered again").is_ok());
///
/// broker.clear_faults();
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail every Nth `send` with [`BusError::Injected`]`("drop")`; the
    /// record is not appended. `0` disables.
    pub drop_every: u64,
    /// On every Nth non-empty partition read, deliver the batch's last
    /// record twice (same partition + offset — a redelivery, exactly what a
    /// crashed-and-restarted consumer produces). `0` disables.
    pub duplicate_every: u64,
    /// Delay every Nth `send`: the record is appended but held invisible to
    /// consumers until `delay_for` further sends occur. `0` disables.
    pub delay_every: u64,
    /// How many subsequent sends a delayed record stays hidden for.
    pub delay_for: u64,
    /// Fail the next N offset commits with [`BusError::CommitFailed`].
    pub fail_commits: u64,
}

impl FaultPlan {
    /// A plan with every fault disabled.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fails every `n`th send (record not appended).
    pub fn drop_every(mut self, n: u64) -> FaultPlan {
        self.drop_every = n;
        self
    }

    /// Redelivers the last record of every `n`th partition read.
    pub fn duplicate_every(mut self, n: u64) -> FaultPlan {
        self.duplicate_every = n;
        self
    }

    /// Hides every `n`th sent record from consumers for `for_sends`
    /// subsequent sends.
    pub fn delay_every(mut self, n: u64, for_sends: u64) -> FaultPlan {
        self.delay_every = n;
        self.delay_for = for_sends;
        self
    }

    /// Fails the next `n` offset commits.
    pub fn fail_commits(mut self, n: u64) -> FaultPlan {
        self.fail_commits = n;
        self
    }
}

/// A record suffix held back by the delay fault: offsets `>= offset` in
/// `(topic, partition)` stay invisible until the broker-wide send sequence
/// reaches `due_seq`.
#[derive(Debug, Clone)]
pub(crate) struct DelayHold {
    pub topic: String,
    pub partition: usize,
    pub offset: u64,
    pub due_seq: u64,
}

/// Shared mutable fault state; producers and consumers hold an `Arc` so
/// injection applies to handles created before or after `inject_faults`.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    plan: RwLock<FaultPlan>,
    send_seq: AtomicU64,
    read_seq: AtomicU64,
    commit_fail_budget: AtomicU64,
    holds: Mutex<Vec<DelayHold>>,
    /// `bus.faults.injected{,.<kind>}`.
    injected: CounterFamily,
}

impl FaultState {
    /// Advances the send sequence and reports which send-side fault (if
    /// any) applies: `Some(true)` = drop, `Some(false)` = delay.
    pub(crate) fn on_send(&self) -> Option<bool> {
        let plan = self.plan.read();
        if plan.drop_every == 0 && plan.delay_every == 0 {
            return None;
        }
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if plan.drop_every > 0 && seq.is_multiple_of(plan.drop_every) {
            self.injected.incr("drop");
            return Some(true);
        }
        if plan.delay_every > 0 && seq.is_multiple_of(plan.delay_every) {
            self.injected.incr("delay");
            return Some(false);
        }
        None
    }

    pub(crate) fn park(&self, topic: &str, partition: usize, offset: u64) {
        let delay_for = self.plan.read().delay_for.max(1);
        let due_seq = self.send_seq.load(Ordering::Relaxed) + delay_for;
        self.holds.lock().push(DelayHold {
            topic: topic.to_owned(),
            partition,
            offset,
            due_seq,
        });
    }

    /// The lowest held-back offset for `(topic, partition)`, dropping holds
    /// whose due sequence has passed. `u64::MAX` when unconstrained.
    pub(crate) fn visibility_cap(&self, topic: &str, partition: usize) -> u64 {
        let mut holds = self.holds.lock();
        if holds.is_empty() {
            return u64::MAX;
        }
        let now = self.send_seq.load(Ordering::Relaxed);
        holds.retain(|h| h.due_seq > now);
        holds
            .iter()
            .filter(|h| h.topic == topic && h.partition == partition)
            .map(|h| h.offset)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// True when this read should redeliver the batch tail.
    pub(crate) fn duplicate_read(&self) -> bool {
        let every = self.plan.read().duplicate_every;
        if every == 0 {
            return false;
        }
        let seq = self.read_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if seq.is_multiple_of(every) {
            self.injected.incr("duplicate");
            return true;
        }
        false
    }

    /// True when this commit should fail (consumes one unit of budget).
    pub(crate) fn fail_commit(&self) -> bool {
        if self
            .commit_fail_budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
        {
            self.injected.incr("commit");
            return true;
        }
        false
    }

    fn install(&self, plan: FaultPlan) {
        self.commit_fail_budget
            .store(plan.fail_commits, Ordering::Relaxed);
        *self.plan.write() = plan;
    }

    fn release_all(&self) -> usize {
        let mut holds = self.holds.lock();
        let n = holds.len();
        holds.clear();
        n
    }
}

/// Consumer-group state: committed offsets and live members per topic.
#[derive(Debug)]
pub(crate) struct GroupState {
    /// Committed offset per partition.
    pub committed: Vec<u64>,
    /// Event-time watermark checkpointed alongside the offsets (see
    /// `Consumer::commit_through`); `i64::MIN` until first checkpoint.
    pub checkpoint_watermark: i64,
    /// Member ids in join order; partition assignment is round-robin over
    /// this list.
    pub members: Vec<u64>,
    /// Next member id.
    pub next_member: u64,
    /// Bumped on every membership change; consumers refresh assignments
    /// when it moves.
    pub generation: u64,
}

impl Default for GroupState {
    fn default() -> GroupState {
        GroupState {
            committed: Vec::new(),
            checkpoint_watermark: i64::MIN,
            members: Vec::new(),
            next_member: 0,
            generation: 0,
        }
    }
}

/// `(group, topic)` → shared group state.
type GroupMap = HashMap<(String, String), Arc<RwLock<GroupState>>>;

/// The message bus.
pub struct Broker {
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    groups: RwLock<GroupMap>,
    faults: Arc<FaultState>,
    /// `bus.producer.backpressure`: sends refused by a full partition.
    pub(crate) backpressure: Arc<Counter>,
    /// `logbus.consumer.records`: records every consumer polled.
    pub(crate) consumer_records: Arc<Counter>,
    /// `logbus.producer.send` (profile-level detail), `logbus.consumer.poll`.
    pub(crate) send_span: Span,
    pub(crate) poll_span: Span,
}

impl Default for Broker {
    fn default() -> Broker {
        Broker::new()
    }
}

impl Broker {
    /// Creates an empty broker.
    pub fn new() -> Broker {
        Broker::with_telemetry(&Registry::default())
    }

    /// Creates an empty broker whose instruments live in `telemetry`.
    pub fn with_telemetry(telemetry: &Registry) -> Broker {
        let kinds = &["drop", "delay", "duplicate", "commit"];
        Broker {
            topics: RwLock::default(),
            groups: RwLock::default(),
            faults: Arc::new(FaultState {
                injected: telemetry.family("bus.faults.injected", kinds),
                ..FaultState::default()
            }),
            backpressure: telemetry.counter("bus.producer.backpressure"),
            consumer_records: telemetry.counter("logbus.consumer.records"),
            send_span: telemetry.span("logbus.producer.send"),
            poll_span: telemetry.span("logbus.consumer.poll"),
        }
    }

    /// Creates a topic with default retention.
    pub fn create_topic(&self, name: &str, partitions: usize) -> Result<(), BusError> {
        self.create_topic_with_retention(name, partitions, DEFAULT_RETENTION)
    }

    /// Creates a topic with explicit per-partition retention (which is also
    /// its capacity: a full partition pushes back on producers rather than
    /// evicting records a registered group has not committed past).
    pub fn create_topic_with_retention(
        &self,
        name: &str,
        partitions: usize,
        retention: usize,
    ) -> Result<(), BusError> {
        let mut topics = self.topics.write();
        if topics.contains_key(name) {
            return Err(BusError::TopicExists(name.to_owned()));
        }
        topics.insert(
            name.to_owned(),
            Arc::new(Topic::new(name, partitions, retention)),
        );
        Ok(())
    }

    /// Looks up a topic.
    pub fn topic(&self, name: &str) -> Result<Arc<Topic>, BusError> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| BusError::NoSuchTopic(name.to_owned()))
    }

    /// All topic names, sorted.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Installs a fault-injection plan (replacing any previous one).
    /// Affects producers and consumers already constructed from this
    /// broker. See [`FaultPlan`] for the knobs.
    pub fn inject_faults(&self, plan: FaultPlan) {
        self.faults.install(plan);
    }

    /// Removes the active fault plan and releases any delayed records.
    pub fn clear_faults(&self) {
        self.faults.install(FaultPlan::default());
        self.faults.release_all();
    }

    /// Makes all delay-held records visible immediately; returns how many
    /// holds were released.
    pub fn release_delayed(&self) -> usize {
        self.faults.release_all()
    }

    pub(crate) fn faults(&self) -> Arc<FaultState> {
        Arc::clone(&self.faults)
    }

    pub(crate) fn group(&self, group: &str, topic: &str) -> Arc<RwLock<GroupState>> {
        let key = (group.to_owned(), topic.to_owned());
        if let Some(g) = self.groups.read().get(&key) {
            return Arc::clone(g);
        }
        let (state, fresh) = {
            let mut groups = self.groups.write();
            match groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
                std::collections::hash_map::Entry::Vacant(e) => {
                    (Arc::clone(e.insert(Arc::default())), true)
                }
            }
        };
        if !fresh {
            return state;
        }
        // First sight of this (group, topic): seed committed offsets at the
        // earliest retained offset (a fresh group on a trimmed topic must
        // not pin eviction at offset 0) and register with the topic so the
        // group's commits bound retention from here on.
        if let Ok(t) = self.topic(topic) {
            {
                let mut g = state.write();
                if g.committed.is_empty() {
                    g.committed = t
                        .partitions
                        .iter()
                        .map(crate::topic::PartitionLog::begin_offset)
                        .collect();
                }
            }
            t.register_group(Arc::clone(&state));
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup_topics() {
        let b = Broker::new();
        b.create_topic("a", 2).unwrap();
        b.create_topic("b", 4).unwrap();
        assert_eq!(b.topic("a").unwrap().partitions.len(), 2);
        assert_eq!(b.topic_names(), vec!["a", "b"]);
        assert!(matches!(
            b.create_topic("a", 1),
            Err(BusError::TopicExists(_))
        ));
        assert!(matches!(b.topic("zzz"), Err(BusError::NoSuchTopic(_))));
    }

    #[test]
    fn group_state_is_shared() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        let g1 = b.group("ingesters", "t");
        let g2 = b.group("ingesters", "t");
        g1.write().next_member = 7;
        assert_eq!(g2.read().next_member, 7);
        let other = b.group("analytics", "t");
        assert_eq!(other.read().next_member, 0);
    }

    #[test]
    fn fresh_group_seeds_committed_from_begin_offsets() {
        let b = Broker::new();
        b.create_topic_with_retention("t", 1, 4).unwrap();
        let topic = b.topic("t").unwrap();
        for i in 0..10 {
            topic.partitions[0]
                .try_append(crate::record::Record::new(None, i.to_string(), 0), 0)
                .unwrap();
        }
        assert_eq!(topic.partitions[0].begin_offset(), 6);
        let g = b.group("late-joiner", "t");
        assert_eq!(g.read().committed, vec![6]);
        // And the floor now reflects the new group.
        assert_eq!(topic.partitions[0].commit_floor(), 6);
    }

    #[test]
    fn fault_plan_install_and_clear() {
        let b = Broker::new();
        b.inject_faults(FaultPlan::new().drop_every(1));
        assert!(b.faults.on_send().is_some());
        b.clear_faults();
        assert!(b.faults.on_send().is_none());
    }
}
