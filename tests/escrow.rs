//! Escrow reserves end to end — the VODAK-flavoured semantic extension
//! (§4.1/§6: conflict relations derived from method commutativity).
//!
//! Reserves on the same stock counter hold compatible L1 locks, so booking
//! transactions interleave like Fig. 8's increments; the engine enforces
//! the non-negativity bound atomically at L0; and the §3.3 undo of an
//! aborted booking is a plain restock — no before image needed.

use amc::core::{Federation, FederationConfig, ProtocolKind, TxnOutcome};
use amc::net::Payload;
use amc::types::{ObjectId, Operation, SiteId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn loaded(protocol: ProtocolKind) -> Arc<Federation> {
    let fed = Federation::new(FederationConfig::uniform(2, protocol));
    for s in 1..=2u32 {
        fed.load_site(
            SiteId::new(s),
            &[
                (obj(s, 0), Value::counter(10)),
                (obj(s, 1), Value::counter(10)),
            ],
        )
        .unwrap();
    }
    Arc::new(fed)
}

fn booking(units: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    BTreeMap::from([
        (
            SiteId::new(1),
            vec![Operation::Reserve {
                obj: obj(1, 0),
                amount: units,
            }],
        ),
        (
            SiteId::new(2),
            vec![Operation::Reserve {
                obj: obj(2, 0),
                amount: units,
            }],
        ),
    ])
}

#[test]
fn concurrent_reserves_interleave_and_never_oversell() {
    // 10 units of stock, 20 concurrent 1-unit bookings: exactly 10 commit,
    // 10 fail their bound check, stock ends at exactly zero.
    let fed = loaded(ProtocolKind::CommitBefore);
    let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> =
        (0..20).map(|_| (booking(1), true)).collect();
    // `true`: a failed bound check is transaction logic, an intended abort.
    let metrics = fed.run_concurrent(programs, 8);
    assert_eq!(metrics.committed, 10, "{metrics:?}");
    assert_eq!(metrics.aborted_intended, 10);
    assert_eq!(
        metrics.l1_rejections, 0,
        "reserves hold compatible L1 locks"
    );
    let dumps = fed.dumps().unwrap();
    assert_eq!(dumps[&SiteId::new(1)][&obj(1, 0)], Value::counter(0));
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)], Value::counter(0));
}

#[test]
fn a_booking_that_fails_at_the_first_site_never_reaches_the_second() {
    // Site 1 is sold out, so the booking's first work send comes back as
    // a no vote. The rest of the work round is skipped: site 2 never runs
    // its reserve, so it never holds stock a concurrent booking needs.
    // Under commit-before its final state is then asked for by inquiry.
    let fed = loaded(ProtocolKind::CommitBefore);
    fed.load_site(SiteId::new(1), &[(obj(1, 0), Value::counter(0))])
        .unwrap();
    let report = fed.run_transaction(&booking(1)).unwrap();
    assert_eq!(report.outcome, TxnOutcome::Aborted);
    let trace = fed.trace();
    let to_site_2: Vec<&Payload> = trace
        .entries()
        .iter()
        .filter(|e| e.envelope.to == SiteId::new(2))
        .map(|e| &e.envelope.payload)
        .collect();
    assert!(
        !to_site_2
            .iter()
            .any(|p| matches!(p, Payload::Submit { .. })),
        "site 2 was sent {to_site_2:?}"
    );
    assert!(matches!(to_site_2[..], [Payload::Prepare { .. }]));
    let dumps = fed.dumps().unwrap();
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)], Value::counter(10));
}

#[test]
fn aborted_booking_restocks_via_inverse_transaction() {
    // Site 1 has stock; site 2's program fails its own logic after site 1
    // already reserved-and-committed — the §3.3 undo must restock.
    let fed = loaded(ProtocolKind::CommitBefore);
    let program = BTreeMap::from([
        (
            SiteId::new(1),
            vec![Operation::Reserve {
                obj: obj(1, 0),
                amount: 4,
            }],
        ),
        (
            SiteId::new(2),
            vec![Operation::Reserve {
                obj: obj(2, 0),
                amount: 999,
            }], // overdraw
        ),
    ]);
    let report = fed.run_transaction(&program).unwrap();
    assert_eq!(report.outcome, TxnOutcome::Aborted);
    let dumps = fed.dumps().unwrap();
    assert_eq!(
        dumps[&SiteId::new(1)][&obj(1, 0)],
        Value::counter(10),
        "the committed reserve was undone by a restock"
    );
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)], Value::counter(10));
}

#[test]
fn oversell_is_impossible_under_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let fed = loaded(protocol);
        let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> =
            (0..15).map(|i| (booking(1 + (i % 2)), true)).collect();
        let metrics = fed.run_concurrent(programs, 6);
        let dumps = fed.dumps().unwrap();
        let s1 = dumps[&SiteId::new(1)][&obj(1, 0)].counter;
        let s2 = dumps[&SiteId::new(2)][&obj(2, 0)].counter;
        assert!(s1 >= 0 && s2 >= 0, "{protocol}: oversold ({s1},{s2})");
        // Conservation: stock consumed == stock reserved by commits.
        assert_eq!(s1, s2, "{protocol}: both legs of every booking are atomic");
        assert!(metrics.committed > 0, "{protocol}");
    }
}

#[test]
fn reserves_and_reads_conflict_at_l1() {
    // An auditor reading the stock must not interleave with reservers —
    // Read vs Escrow is a conflict, so the read sees a consistent value.
    let fed = loaded(ProtocolKind::CommitBefore);
    let audit = BTreeMap::from([
        (SiteId::new(1), vec![Operation::Read { obj: obj(1, 0) }]),
        (SiteId::new(2), vec![Operation::Read { obj: obj(2, 0) }]),
    ]);
    let mut programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> =
        (0..8).map(|_| (booking(1), true)).collect();
    programs.push((audit, false));
    let metrics = fed.run_concurrent(programs, 6);
    assert_eq!(metrics.committed, 9, "{metrics:?}");
    // The audit committed; the history must be serializable (the L1 locks
    // force the read to a consistent cut).
    fed.history()
        .check_serializable(amc::verify::history::ConflictDefinition::Commutativity)
        .unwrap();
}
