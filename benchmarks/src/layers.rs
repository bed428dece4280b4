//! Stand-alone probes of single layers: calls into their public functions
//! on inputs of the benchmark's own, timed outside any workload.

use crate::deck::{analytic_templates, Facts, SplitMix64};
use skyserver::storage::{ColumnData, IndexKey};
use skyserver::{QueryLimits, QueryMonitor, SkyServer, Value};
use skyserver_web::cache::CachedBody;
use skyserver_web::{normalize_sql, Governor, GovernorConfig, JobQueueConfig, ResultCache};
use std::time::Instant;

/// Mean microseconds of `f` over `n` calls.
fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    started.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// `cache.lookup_us`: normalize a statement, miss, insert, hit — on a cache
/// of the site's shape (128 entries) holding a typical 2 KB body.
pub fn cache_lookup_us() -> f64 {
    let cache = ResultCache::new(128);
    let body = vec![b'x'; 2048];
    mean_us(2000, |i| {
        let key = normalize_sql(&format!(
            "SELECT  top 10 objID, ra, dec FROM PhotoObj WHERE objID = {}",
            i % 256
        ));
        if cache.get(&key).is_none() {
            cache.insert(
                key.clone(),
                CachedBody {
                    content_type: "text/csv".to_string(),
                    body: body.clone(),
                },
            );
        }
        std::hint::black_box(cache.get(&key));
    })
}

/// `governor.admit_us`: take and return one admission permit.
pub fn governor_admit_us() -> f64 {
    let governor = Governor::new(GovernorConfig::default());
    mean_us(20_000, |_| {
        std::hint::black_box(governor.admit());
    })
}

/// What the storage probes measured.
#[derive(Debug, Default)]
pub struct StorageProbe {
    pub index_seek_us: f64,
    pub column_sweep_ms: f64,
    pub fork_us: f64,
    pub analyze_ms: f64,
    pub data_bytes: f64,
    pub index_bytes: f64,
    pub bytes_per_csv_byte: f64,
}

pub fn storage_probe(sky: &SkyServer, facts: &Facts) -> StorageProbe {
    let db = sky.engine().db();
    let pk = db
        .index("PhotoObj", "pk_PhotoObj")
        .expect("the primary key index");
    let mut rng = SplitMix64::new(1);
    let index_seek_us = mean_us(5000, |_| {
        let id = facts.objects[rng.below(facts.objects.len())].0;
        std::hint::black_box(pk.seek_exact(&IndexKey(vec![Value::Int(id)])));
    });
    // The scan floor: a raw sum of one float column over every segment.
    let table = db.table("PhotoObj").expect("PhotoObj");
    let column = table
        .schema()
        .column_index("modelMag_r")
        .expect("modelMag_r");
    let column_sweep_ms = mean_us(20, |_| {
        let mut sum = 0.0;
        for segment in table.segments() {
            if let ColumnData::Float(values) = segment.column(column).data() {
                sum += values.iter().sum::<f64>();
            }
        }
        std::hint::black_box(sum);
    }) / 1e3;
    let fork_us = mean_us(50, |_| {
        std::hint::black_box(sky.fork());
    });
    let mut fork = sky.fork();
    let analyze_ms = mean_us(3, |_| {
        fork.engine_mut()
            .db_mut()
            .analyze_table("PhotoObj")
            .expect("analyze");
    }) / 1e3;
    let (data, index) = (db.total_data_bytes() as f64, db.total_index_bytes() as f64);
    StorageProbe {
        index_seek_us,
        column_sweep_ms,
        fork_us,
        analyze_ms,
        data_bytes: data,
        index_bytes: index,
        bytes_per_csv_byte: (data + index) / sky.load_report().total_bytes.max(1) as f64,
    }
}

/// The budget probe deck: the analytic templates under the public limits
/// and under the job tier's, and which of them fail.
pub struct BudgetProbe {
    pub failed_public: Vec<&'static str>,
    pub failed_batch: Vec<&'static str>,
}

pub fn budget_probe(sky: &SkyServer) -> BudgetProbe {
    let job = JobQueueConfig::default();
    let job_limits = QueryLimits {
        max_rows: Some(job.max_result_rows),
        max_seconds: job.max_seconds,
        max_bytes: job.max_bytes,
    };
    let failing = |limits: QueryLimits| {
        analytic_templates()
            .into_iter()
            .filter(|t| {
                sky.execute_batch(&t.instantiate(0.5), limits, &QueryMonitor::new())
                    .is_err()
            })
            .map(|t| t.id)
            .collect()
    };
    BudgetProbe {
        failed_public: failing(QueryLimits::PUBLIC),
        failed_batch: failing(job_limits),
    }
}
