//! The framework's table set (paper §II-B, Figs 1 and 2).
//!
//! Eight tables from the paper's list, plus `application_by_name` — the
//! paper's Fig 2 shows an application-name-keyed view that its own list
//! omits, so we keep both (see DESIGN.md).

use rasdb::cluster::Cluster;
use rasdb::error::DbError;
use rasdb::schema::{ColumnType, TableSchema};

/// `nodeinfos`: the physical system description.
pub fn nodeinfos() -> TableSchema {
    TableSchema::builder("nodeinfos")
        .partition_key("cname", ColumnType::Text)
        .column("idx", ColumnType::BigInt)
        .column("row", ColumnType::Int)
        .column("col", ColumnType::Int)
        .column("cage", ColumnType::Int)
        .column("slot", ColumnType::Int)
        .column("node", ColumnType::Int)
        .column("gemini", ColumnType::BigInt)
        .build()
        .expect("static schema")
}

/// `eventtypes`: the catalog of monitored event types.
pub fn eventtypes() -> TableSchema {
    TableSchema::builder("eventtypes")
        .partition_key("name", ColumnType::Text)
        .column("class", ColumnType::Text)
        .column("severity", ColumnType::Text)
        .column("description", ColumnType::Text)
        .build()
        .expect("static schema")
}

/// `eventsynopsis`: per-day summary rows (type × hour counts).
pub fn eventsynopsis() -> TableSchema {
    TableSchema::builder("eventsynopsis")
        .partition_key("day", ColumnType::BigInt)
        .clustering_key("type", ColumnType::Text)
        .clustering_key("hour", ColumnType::BigInt)
        .column("events", ColumnType::BigInt)
        .column("nodes", ColumnType::BigInt)
        .build()
        .expect("static schema")
}

/// `event_by_time`: partition `(hour, type)`, wide row sorted by
/// `(ts, source)` — Fig 1 top.
pub fn event_by_time() -> TableSchema {
    TableSchema::builder("event_by_time")
        .partition_key("hour", ColumnType::BigInt)
        .partition_key("type", ColumnType::Text)
        .clustering_key("ts", ColumnType::Timestamp)
        .clustering_key("source", ColumnType::Text)
        .column("amount", ColumnType::Int)
        .column("raw", ColumnType::Text)
        .build()
        .expect("static schema")
}

/// `event_by_location`: partition `(hour, source)`, wide row sorted by
/// `(ts, type)` — Fig 1 bottom.
pub fn event_by_location() -> TableSchema {
    TableSchema::builder("event_by_location")
        .partition_key("hour", ColumnType::BigInt)
        .partition_key("source", ColumnType::Text)
        .clustering_key("ts", ColumnType::Timestamp)
        .clustering_key("type", ColumnType::Text)
        .column("amount", ColumnType::Int)
        .column("raw", ColumnType::Text)
        .build()
        .expect("static schema")
}

fn apprun_columns(builder: rasdb::schema::TableSchemaBuilder) -> rasdb::schema::TableSchemaBuilder {
    builder
        .column("end_ts", ColumnType::Timestamp)
        .column("node_first", ColumnType::BigInt)
        .column("node_last", ColumnType::BigInt)
        .column("exit_code", ColumnType::Int)
        .column("other_info", ColumnType::Map)
}

/// `application_by_time`: partition by start hour — Fig 2 top.
pub fn application_by_time() -> TableSchema {
    apprun_columns(
        TableSchema::builder("application_by_time")
            .partition_key("hour", ColumnType::BigInt)
            .clustering_key("start_ts", ColumnType::Timestamp)
            .clustering_key("apid", ColumnType::BigInt)
            .column("userid", ColumnType::Text)
            .column("appname", ColumnType::Text),
    )
    .build()
    .expect("static schema")
}

/// `application_by_name`: partition by application — Fig 2 middle.
pub fn application_by_name() -> TableSchema {
    apprun_columns(
        TableSchema::builder("application_by_name")
            .partition_key("appname", ColumnType::Text)
            .clustering_key("start_ts", ColumnType::Timestamp)
            .clustering_key("apid", ColumnType::BigInt)
            .column("userid", ColumnType::Text),
    )
    .build()
    .expect("static schema")
}

/// `application_by_user`: partition by user — Fig 2 bottom.
pub fn application_by_user() -> TableSchema {
    apprun_columns(
        TableSchema::builder("application_by_user")
            .partition_key("userid", ColumnType::Text)
            .clustering_key("start_ts", ColumnType::Timestamp)
            .clustering_key("apid", ColumnType::BigInt)
            .column("appname", ColumnType::Text),
    )
    .build()
    .expect("static schema")
}

/// `application_by_location`: partition by cabinet of the allocation head,
/// for "which applications ran here" queries.
pub fn application_by_location() -> TableSchema {
    apprun_columns(
        TableSchema::builder("application_by_location")
            .partition_key("cabinet", ColumnType::BigInt)
            .clustering_key("start_ts", ColumnType::Timestamp)
            .clustering_key("apid", ColumnType::BigInt)
            .column("userid", ColumnType::Text)
            .column("appname", ColumnType::Text),
    )
    .build()
    .expect("static schema")
}

/// Every schema, in creation order.
pub fn all_schemas() -> Vec<TableSchema> {
    vec![
        nodeinfos(),
        eventtypes(),
        eventsynopsis(),
        event_by_time(),
        event_by_location(),
        application_by_time(),
        application_by_name(),
        application_by_user(),
        application_by_location(),
    ]
}

/// Creates every table on the cluster.
pub fn create_all(cluster: &Cluster) -> Result<(), DbError> {
    for schema in all_schemas() {
        cluster.create_table(schema)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasdb::cluster::ClusterConfig;

    #[test]
    fn nine_tables_with_unique_names() {
        let schemas = all_schemas();
        assert_eq!(schemas.len(), 9);
        let names: std::collections::HashSet<&str> = schemas.iter().map(|s| &*s.name).collect();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn event_tables_are_dual_views() {
        let by_time = event_by_time();
        let by_loc = event_by_location();
        assert_eq!(&*by_time.partition_key[0].name, "hour");
        assert_eq!(&*by_time.partition_key[1].name, "type");
        assert_eq!(&*by_loc.partition_key[1].name, "source");
        // Both cluster on timestamp first: one-hour time series per row.
        assert_eq!(&*by_time.clustering_key[0].name, "ts");
        assert_eq!(&*by_loc.clustering_key[0].name, "ts");
    }

    #[test]
    fn create_all_registers_everything() {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            replication_factor: 1,
            vnodes: 4,
        });
        create_all(&cluster).unwrap();
        assert_eq!(cluster.table_names().len(), 9);
        // Second run collides.
        assert!(create_all(&cluster).is_err());
    }
}
