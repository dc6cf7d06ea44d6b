//! The coordinator write path: inserts and deletes, grouped by partition
//! into one batch per replica.

use super::Cluster;
use crate::commitlog::Mutation;
use crate::error::DbError;
use crate::partitioner::{DecoratedKey, TokenMap};
use crate::query::Consistency;
use crate::ring::NodeId;
use crate::schema::{InsertBinder, TableSchema};
use crate::types::Value;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Cluster {
    /// Inserts one row whose column names are any string type: a batch of
    /// one.
    pub fn insert<N: AsRef<str>>(
        &self,
        table: &str,
        values: Vec<(N, Value)>,
        consistency: Consistency,
    ) -> Result<(), DbError> {
        self.insert_batch(table, vec![values], consistency)
            .map(|_| ())
    }

    /// Inserts a batch of rows, each a list of `(column, value)` pairs, at
    /// one consistency level. Returns the number of rows written. This is
    /// [`Cluster::insert_views`] with one view.
    pub fn insert_batch<N: AsRef<str>>(
        &self,
        table: &str,
        batch: Vec<Vec<(N, Value)>>,
        consistency: Consistency,
    ) -> Result<usize, DbError> {
        self.insert_views(&[table], batch, consistency)
    }

    /// Inserts each row of a batch into every table of `tables`, the views
    /// of one record that store it under different keys, at one
    /// consistency level. A row names its columns once for all views, and
    /// each view takes its own keys from it. Returns the number of rows
    /// written, counted once per view.
    ///
    /// The whole batch is validated against every view before anything is
    /// written: a [`DbError::SchemaViolation`] or [`DbError::NoSuchTable`]
    /// means no replica of any view saw any of its rows. After that every
    /// row of every view is attempted; if some partition gathered fewer
    /// acks than the consistency level requires, the first such
    /// [`DbError::Unavailable`] is returned once every view is through.
    /// Replicas that missed rows are hinted, and re-sending the batch is
    /// idempotent (last write wins per cell).
    ///
    /// A row carries one write timestamp in every view, drawn in arrival
    /// order, and its regular cells are built once: every view whose
    /// regular columns are the first view's, by name and type, stores that
    /// one `Cells` slice. Column names may be any string type; none is
    /// stored. Each is resolved against each view's schema (once per batch
    /// while the rows keep one shape), and a stored cell points at the
    /// schema's interned name.
    pub fn insert_views<N: AsRef<str>>(
        &self,
        tables: &[&str],
        batch: Vec<Vec<(N, Value)>>,
        consistency: Consistency,
    ) -> Result<usize, DbError> {
        let mut span = Some(self.coord_stats.write_span.enter());
        if tables.is_empty() {
            return Err(DbError::BadQuery("an insert needs a table".into()));
        }
        let schemas = tables
            .iter()
            .map(|&table| self.known_schema(table))
            .collect::<Result<Vec<_>, _>>()?;
        let views: Vec<&TableSchema> = schemas.iter().map(|s| &**s).collect();
        let mut binder = InsertBinder::new(&views, batch.len());
        for values in batch {
            binder.bind(values)?;
        }
        // Write timestamps follow arrival order, drawn once the whole batch
        // is known to be valid: one per row, shared by its views.
        let rows = binder.rows();
        let first_ts = self.clock.fetch_add(rows as u64, Ordering::Relaxed);
        let mut first_error = None;
        for (schema, mutations) in views.iter().zip(binder.finish(first_ts)) {
            let span = span
                .take()
                .unwrap_or_else(|| self.coord_stats.write_span.enter());
            if let Err(e) = self.write_batch(span, &schema.name, mutations, consistency) {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(rows * views.len()), Err)
    }

    /// Deletes one clustered row.
    pub fn delete(
        &self,
        table: &str,
        partition: Vec<Value>,
        clustering: Vec<Value>,
        consistency: Consistency,
    ) -> Result<(), DbError> {
        let span = self.coord_stats.write_span.enter();
        let schema = self.known_schema(table)?;
        let ts = self.clock.fetch_add(1, Ordering::Relaxed);
        let m = Mutation::delete(
            Arc::clone(&schema.name),
            DecoratedKey::new(partition.into()),
            clustering.into(),
            ts,
        );
        self.write_batch(span, &schema.name, vec![m], consistency)
    }

    /// The coordinator write path: every insert and delete, single or
    /// batched, goes through here. `mutations` all target `table` and carry
    /// their write timestamps; `span` is the caller's
    /// `rasdb.coordinator.write` span, opened before validation.
    ///
    /// The batch is grouped by partition and each storage node receives
    /// all of its groups in one [`StorageNode::apply_batch`], inline on the
    /// calling thread. Every group is attempted before any error is
    /// returned.
    fn write_batch(
        &self,
        mut span: telemetry::SpanGuard,
        table: &Arc<str>,
        mutations: Vec<Mutation>,
        consistency: Consistency,
    ) -> Result<(), DbError> {
        // Groups in order of first arrival; rows keep arrival order inside
        // their group. The map hashes each decorated key's token.
        let mut group_of: TokenMap<&DecoratedKey, usize> = TokenMap::default();
        let row_groups: Vec<usize> = mutations
            .iter()
            .map(|m| {
                let next = group_of.len();
                *group_of.entry(&m.partition).or_insert(next)
            })
            .collect();
        let groups = group_of.len();
        drop(group_of);
        // The rows laid out once, group after group, with one counting pass:
        // `ends[g]` is first where group `g` starts, then, once its rows are
        // in place, where it ends.
        let mut ends = vec![0usize; groups];
        for &g in &row_groups {
            ends[g] += 1;
        }
        let mut start = 0;
        for end in &mut ends {
            start += std::mem::replace(end, start);
        }
        let mut slots: Vec<Option<Arc<Mutation>>> = vec![None; row_groups.len()];
        for (m, g) in mutations.into_iter().zip(row_groups) {
            slots[ends[g]] = Some(Arc::new(m));
            ends[g] += 1;
        }
        let rows: Vec<Arc<Mutation>> = slots
            .into_iter()
            .map(|m| m.expect("one row per slot"))
            .collect();
        let group = |g: usize| {
            let start = if g == 0 { 0 } else { ends[g - 1] };
            &rows[start..ends[g]]
        };

        // One topology snapshot yields every group's replicas and gainers,
        // so a transition committing mid-write can never make the
        // coordinator miss both the old and the new owner of a range.
        // Per node: the groups it receives, and whether its ack counts.
        let mut required = Vec::with_capacity(groups);
        let mut per_node: BTreeMap<NodeId, Vec<(usize, bool)>> = BTreeMap::new();
        {
            let topo = self.topology.read();
            for g in 0..groups {
                let token = group(g)[0].partition.token();
                let replicas = topo.ring.replicas(token);
                required.push(consistency.required(replicas.len()));
                // Double-write window: while a transition is in flight,
                // every future owner of the range receives the mutations
                // too, so commit finds nothing missing. These writes never
                // count toward the client's consistency level — the old
                // ring stays authoritative until commit — and a miss
                // (gainer down) is hinted and drained synchronously at
                // commit.
                if let Some(t) = &topo.transition {
                    for id in t.target_ring.replicas(token) {
                        if !replicas.contains(id) {
                            per_node.entry(*id).or_default().push((g, false));
                        }
                    }
                }
                for id in replicas {
                    per_node.entry(*id).or_default().push((g, true));
                }
            }
        }

        let mut acks = vec![0usize; groups];
        for (id, assigned) in &per_node {
            let batch: Vec<&[Arc<Mutation>]> = assigned.iter().map(|&(g, _)| group(g)).collect();
            if self.node(*id).apply_batch(&batch) {
                for &(g, counts) in assigned {
                    acks[g] += usize::from(counts);
                }
            } else {
                self.queue_hints(*id, batch.into_iter().flatten());
            }
        }

        // Bump *after* the replica applies so a concurrent reader that
        // snapshotted the old version cannot cache post-write rows under a
        // still-current tag. Bumped even on the Unavailable path: some
        // replicas may have applied the mutations.
        self.bump_versions(table, (0..groups).map(|g| &group(g)[0].partition));

        self.coord_stats.write_rows.incr(rows.len() as u64);
        span.tag("rows", rows.len().to_string());
        span.tag("partitions", groups.to_string());
        span.tag("replica_batches", per_node.len().to_string());

        match acks.iter().zip(&required).find(|(got, need)| got < need) {
            None => Ok(()),
            Some((&received, &required)) => Err(DbError::Unavailable { required, received }),
        }
    }
}
