//! Ablation A2 — LSM tuning: memtable flush threshold and compaction
//! trigger vs write cost, read cost, and space amplification.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, sized, timed, timed_mean, BenchLog, Snapshot};
use augur_store::{LsmParams, LsmStore};
use augur_telemetry::{Clock, ManualTime, Obs};
use rand::{Rng, SeedableRng};

fn main() {
    header(
        "A2",
        "LSM flush/compaction tuning (100k writes, 20% deletes)",
    );
    let writes = sized(100_000, 5_000);
    let gets = sized(20_000, 2_000);
    let mut snap = Snapshot::new("a2_lsm");
    snap.param_num("writes", writes as f64);
    snap.param_num("gets", gets as f64);
    snap.param_num("delete_fraction", 0.2);
    // Flush/compaction decision records: timestamped on a manual clock
    // advanced once per configuration, so each config's events group.
    let blog = BenchLog::new("a2_lsm");
    let manual = ManualTime::shared();
    let clock: Clock = manual.clone();
    row(&[
        "flush at".into(),
        "compact at".into(),
        "write ms".into(),
        "get µs".into(),
        "runs".into(),
        "space amp".into(),
    ]);
    for (config, &(flush, compact)) in [
        (256usize, 4usize),
        (1024, 4),
        (4096, 4),
        (4096, 16),
        (16384, 4),
        (65536, 64), // effectively never compacts at this volume
    ]
    .iter()
    .enumerate()
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut db = LsmStore::new(LsmParams {
            memtable_flush_entries: flush,
            compaction_trigger_runs: compact,
        });
        manual.advance_micros(1_000_000);
        let obs = Obs {
            registry: snap.registry().clone(),
            parent: blog.root().child(config as u64),
            log: Some(blog.handle().clone()),
            ..Obs::default()
        };
        db.instrument(&obs, &format!("lsm_{flush}_{compact}"), &clock);
        let (_, write_us) = timed(|| {
            for _ in 0..writes {
                let k: u32 = rng.gen_range(0..20_000);
                if rng.gen_bool(0.2) {
                    db.delete(k.to_be_bytes().to_vec());
                } else {
                    db.put(
                        k.to_be_bytes().to_vec(),
                        rng.gen::<u64>().to_le_bytes().to_vec(),
                    );
                }
            }
        });
        let mut qk: u32 = 0;
        let get_us = timed_mean(gets, || {
            qk = qk.wrapping_add(7919) % 20_000;
            std::hint::black_box(db.get(&qk.to_be_bytes()));
        });
        let stats = db.stats();
        let live = db.len().max(1);
        let (fl, cp) = (flush.to_string(), compact.to_string());
        let labels = [("flush", fl.as_str()), ("compact", cp.as_str())];
        snap.gauge("write_ms", &labels, write_us / 1e3);
        snap.gauge("get_us", &labels, get_us);
        snap.gauge(
            "space_amplification",
            &labels,
            (stats.run_entries + stats.memtable_entries) as f64 / live as f64,
        );
        row(&[
            flush.to_string(),
            compact.to_string(),
            f(write_us / 1e3, 1),
            f(get_us, 2),
            stats.runs.to_string(),
            f(
                (stats.run_entries + stats.memtable_entries) as f64 / live as f64,
                2,
            ),
        ]);
    }
    println!(
        "\nexpected shape: small memtables flush constantly (write cost up,\n\
         more runs → reads touch more levels); lazy compaction grows space\n\
         amplification and read cost; the defaults sit in the basin"
    );
    blog.finish();
    snap.write().expect("snapshot write");
}
