//! The read-path contract: every `SkyServer` read wrapper and
//! `SqlEngine::execute_read` answer the same scripts the same way, because
//! they are one engine entry point under different limits and pins.

use skyserver::sql::{QueryLimits, QueryMonitor, SqlError};
use skyserver::{SkyServer, SkyServerBuilder, SkyServerError, Value};

/// One read entry point: runs `sql` (pinned to `release` if the entry takes
/// a pin) and returns the rows of the script's last statement.
type Entry = fn(&SkyServer, &str, Option<&str>) -> Result<Vec<Vec<Value>>, SqlError>;

fn sql_error(e: SkyServerError) -> SqlError {
    match e {
        SkyServerError::Sql(e) => e,
        other => panic!("not a SQL error: {other}"),
    }
}

/// Every read entry: its name, how to call it, and whether it takes a
/// release pin.
fn entries() -> Vec<(&'static str, Entry, bool)> {
    vec![
        (
            "SkyServer::execute_public",
            |s, sql, _| {
                s.execute_public(sql)
                    .map(|o| o.result.rows)
                    .map_err(sql_error)
            },
            false,
        ),
        (
            "SkyServer::execute_public_on",
            |s, sql, release| {
                s.execute_public_on(sql, &QueryMonitor::new(), release)
                    .map(|o| o.result.rows)
                    .map_err(sql_error)
            },
            true,
        ),
        (
            "SkyServer::query",
            |s, sql, _| s.query(sql).map(|r| r.rows).map_err(sql_error),
            false,
        ),
        (
            "SkyServer::query_on",
            |s, sql, release| s.query_on(sql, release).map(|r| r.rows).map_err(sql_error),
            true,
        ),
        (
            "SkyServer::execute_batch",
            |s, sql, _| {
                s.execute_batch(sql, QueryLimits::UNLIMITED, &QueryMonitor::new())
                    .map(|o| o.result.rows)
                    .map_err(sql_error)
            },
            false,
        ),
        (
            "SqlEngine::execute_read",
            |s, sql, release| {
                s.engine()
                    .execute_read(sql, QueryLimits::UNLIMITED, None, release)
                    .map(|o| o.result.rows)
            },
            true,
        ),
    ]
}

#[test]
fn every_read_entry_keeps_the_contract() {
    let mut sky = SkyServerBuilder::new().tiny().build().unwrap();
    // A session variable for scripts to shadow, and a second release for a
    // statement's AS OF to conflict with.
    sky.execute("declare @limit float; set @limit = 16.0")
        .unwrap();
    sky.publish_release("dr2").unwrap();
    let photo_rows = sky.query("select count(*) from PhotoObj").unwrap().rows;

    for (name, run, pins) in entries() {
        // An empty script is a parse error, whatever its separators.
        for sql in ["", " ;; "] {
            assert_eq!(
                run(&sky, sql, None),
                Err(SqlError::Parse("empty SQL script".into())),
                "{name}: {sql:?}"
            );
        }
        // Writes are refused before anything is planned or written.
        for sql in [
            "insert into PhotoObj (objID) values (1)",
            "select objID into ##t from PhotoObj",
        ] {
            let got = run(&sky, sql, None);
            assert!(
                matches!(got, Err(SqlError::ReadOnly(_))),
                "{name}: {sql}: {got:?}"
            );
        }
        assert!(!sky.engine().db().has_table("##t"), "{name}");
        // DECLARE and SET act inside the script and leave the session alone.
        let rows = run(
            &sky,
            "declare @n bigint; set @n = 7; set @limit = 99.5; select @n, @limit",
            None,
        );
        assert_eq!(
            rows,
            Ok(vec![vec![Value::Int(7), Value::Float(99.5)]]),
            "{name}"
        );
        assert_eq!(sky.engine().variable("n"), None, "{name}");
        assert_eq!(
            sky.engine().variable("limit"),
            Some(Value::Float(16.0)),
            "{name}"
        );
        if !pins {
            continue;
        }
        // An unknown release is refused even when no SELECT would read it.
        assert_eq!(
            run(&sky, "declare @x bigint", Some("dr9")),
            Err(SqlError::UnknownRelease("dr9".into())),
            "{name}"
        );
        // An AS OF that agrees with the pin reads it; one that conflicts is
        // a plan error.
        let agreed = run(&sky, "select count(*) from PhotoObj as of dr1", Some("dr1"));
        assert_eq!(agreed, Ok(photo_rows.clone()), "{name}");
        let conflict = run(&sky, "select count(*) from PhotoObj as of dr2", Some("dr1"));
        assert!(
            matches!(conflict, Err(SqlError::Plan(_))),
            "{name}: {conflict:?}"
        );
    }
}
