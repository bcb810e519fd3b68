//! Checker models that drive the *real* `ResultStore` under the controlled
//! scheduler (`--cfg eco_sched`), including the seeded-bug regressions: the
//! historical `TMP_SEQ` temp-name collision and an inverted index-update
//! ordering are re-introduced through `eco_store::faults` hooks, and the
//! explorer must catch each with its own ECO-S code while the clean
//! protocol passes. Mirrors the corruption-injection idiom of
//! `tests/certify.rs`: break one invariant on purpose, assert the exact
//! diagnostic.
#![cfg(eco_sched)]

use eco_cachesim::{Counters, TagCounters};
use eco_sched::model::{self, check};
use eco_sched::{explore, Config, DiagCode};
use eco_store::{faults, ResultStore, StoreKey};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The fault hooks are process-wide and the harness runs tests on
/// parallel threads: each test holds this lock, so one test's injected
/// fault never leaks into another test's exploration.
static FAULTS: Mutex<()> = Mutex::new(());

fn exclusive_faults() -> MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(PoisonError::into_inner)
}

static RUN_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eco-store-sched-{tag}-{}-{}",
        std::process::id(),
        RUN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counters(seed: u64) -> Counters {
    Counters {
        loads: 1000 + seed,
        stores: 400 + seed,
        prefetches: 8,
        cache_misses: vec![17 + seed, 5],
        prefetch_fills: vec![3, 1],
        tlb_misses: 2,
        flops: 2000 + seed,
        loop_iterations: 50,
        cycles_x1000: 9_000_000 + seed,
        per_tag: vec![TagCounters {
            accesses: 70,
            misses: vec![9, 2],
            tlb_misses: 1,
        }],
    }
}

fn key(point: u64) -> StoreKey {
    StoreKey {
        program_fp: 0xec0,
        point_fp: point,
    }
}

/// Small exploration budget: each schedule does real file I/O.
fn cfg() -> Config {
    Config {
        max_schedules: 400,
        ..Config::default()
    }
}

/// Two writers racing the same key plus a concurrent reader, on the real
/// store: every schedule must keep both puts succeeding, the final read a
/// hit, and no record ever torn (`rejected` stays 0).
fn write_race_body() {
    let dir = scratch("model");
    let store = Arc::new(ResultStore::open(&dir).expect("open store"));
    let (s1, s2, s3) = (store.clone(), store.clone(), store.clone());
    let w1 = model::thread::spawn("writer-a", move || {
        s1.put(key(1), "prog", &counters(1)).is_ok()
    });
    let w2 = model::thread::spawn("writer-b", move || {
        s2.put(key(1), "prog", &counters(1)).is_ok()
    });
    let reader = model::thread::spawn("reader", move || {
        // An index hit must always be backed by a durable record: a miss
        // with a non-empty index is the inverted-publish smoking gun.
        let populated = !s3.is_empty();
        let hit = s3.get(key(1)).is_some();
        check(DiagCode::StoreIndexOrder, !populated || hit, || {
            "index hit for a record whose bytes are not durable yet".to_string()
        });
    });
    let ok1 = w1.join();
    let ok2 = w2.join();
    reader.join();
    check(DiagCode::StoreTempCollision, ok1 && ok2, || {
        "a put failed: colliding temp names stole each other's rename".to_string()
    });
    check(
        DiagCode::StoreTempCollision,
        store.get(key(1)).is_some() && store.stats().rejected == 0,
        || "final read missed or saw a torn record".to_string(),
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_store_protocol_passes() {
    let _faults = exclusive_faults();
    faults::TMP_NAME_COLLISION.store(false, Ordering::SeqCst);
    faults::INDEX_BEFORE_WRITE.store(false, Ordering::SeqCst);
    let report = explore(cfg(), write_race_body);
    assert!(
        report.is_clean(),
        "clean store protocol reported: {:?}",
        report.diags
    );
    assert!(
        report.schedules >= 100,
        "only {} schedules",
        report.schedules
    );
    // `store.inner` is the store's only lock, and it is never held
    // while another is taken: no order edges at all.
    assert_eq!(report.edges, Vec::<(String, String)>::new());
}

#[test]
fn tmp_seq_collision_is_caught_as_s005() {
    let _faults = exclusive_faults();
    faults::INDEX_BEFORE_WRITE.store(false, Ordering::SeqCst);
    faults::TMP_NAME_COLLISION.store(true, Ordering::SeqCst);
    let report = explore(cfg(), write_race_body);
    faults::TMP_NAME_COLLISION.store(false, Ordering::SeqCst);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.code == DiagCode::StoreTempCollision),
        "expected ECO-S005 from the reintroduced TMP_SEQ collision, got {:?}",
        report.diags
    );
    let diag = report
        .diags
        .iter()
        .find(|d| d.code == DiagCode::StoreTempCollision)
        .unwrap();
    assert!(!diag.schedule.is_empty(), "failing schedule not attached");
}

#[test]
fn index_before_write_is_caught_as_s006() {
    let _faults = exclusive_faults();
    faults::TMP_NAME_COLLISION.store(false, Ordering::SeqCst);
    faults::INDEX_BEFORE_WRITE.store(true, Ordering::SeqCst);
    // One writer, one reader: the violating window (index published, bytes
    // not yet written, reader reads) sits early in the schedule, so keep
    // the space small enough for DFS to back up into it.
    let report = explore(cfg(), || {
        let dir = scratch("inverted");
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));
        let (s1, s2) = (store.clone(), store.clone());
        let writer = model::thread::spawn("writer", move || {
            let _ = s1.put(key(2), "prog", &counters(2));
        });
        let reader = model::thread::spawn("reader", move || {
            let populated = !s2.is_empty();
            let hit = s2.get(key(2)).is_some();
            check(DiagCode::StoreIndexOrder, !populated || hit, || {
                "index hit for a record whose bytes are not durable yet".to_string()
            });
        });
        writer.join();
        reader.join();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
    faults::INDEX_BEFORE_WRITE.store(false, Ordering::SeqCst);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.code == DiagCode::StoreIndexOrder),
        "expected ECO-S006 from the inverted index publish, got {:?}",
        report.diags
    );
}

/// `gc` racing a writer on the real store, under the scheduler: eviction
/// must never leave an index entry without bytes or fail a concurrent put.
#[test]
fn gc_race_stays_consistent_under_exploration() {
    let _faults = exclusive_faults();
    faults::TMP_NAME_COLLISION.store(false, Ordering::SeqCst);
    faults::INDEX_BEFORE_WRITE.store(false, Ordering::SeqCst);
    let report = explore(cfg(), || {
        let dir = scratch("gc");
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));
        store.put(key(10), "prog", &counters(10)).expect("seed put");
        store.put(key(11), "prog", &counters(11)).expect("seed put");
        let (s1, s2) = (store.clone(), store.clone());
        let writer = model::thread::spawn("writer", move || {
            s1.put(key(12), "prog", &counters(12)).is_ok()
        });
        let collector = model::thread::spawn("gc", move || s2.gc(0).is_ok());
        let wrote = writer.join();
        let collected = collector.join();
        check(DiagCode::StoreIndexOrder, wrote && collected, || {
            "gc and put interfered: one of them failed".to_string()
        });
        // Reopening must agree with disk (index never points at nothing).
        drop(store);
        let reopened = ResultStore::open(&dir).expect("reopen store");
        for k in [key(10), key(11), key(12)] {
            let _ = reopened.get(k);
        }
        check(
            DiagCode::StoreIndexOrder,
            reopened.stats().rejected == 0,
            || "reopened store rejected a record (torn bytes on disk)".to_string(),
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    });
    assert!(report.is_clean(), "gc race reported: {:?}", report.diags);
}
