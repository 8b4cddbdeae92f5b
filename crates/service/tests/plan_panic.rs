//! A panic while a worker acquires a query's plan (compile, or insert
//! into the plan cache) must reach the client as the query's own
//! `err:XQRL0000` and count as a failed query, both for single queries
//! and inside a batch. Its own test binary: the armed schedule is
//! process-wide, and fault-free tests must not share a process with it.

use xqr_core::DynamicContext;
use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
use xqr_service::{QueryService, ServiceConfig};
use xqr_xdm::ErrorCode;

#[test]
fn a_panic_during_plan_acquisition_is_an_internal_error() {
    let svc = QueryService::new(ServiceConfig::default());
    svc.load_document("d.xml", "<a><b/><b/></a>").unwrap();
    let _faults = xqr_faults::install(
        FaultSchedule::new(7).rule(FaultRule::new("plans.insert", FaultKind::Panic)),
    );

    let err = svc
        .submit("count(//b)", DynamicContext::new())
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::Internal, "{err}");
    assert_eq!(svc.stats().failed, 1);

    let outcomes = svc.run_batch("d.xml", &["count(//a)", "1 + 1"]).unwrap();
    assert_eq!(outcomes.len(), 2);
    for outcome in outcomes {
        assert_eq!(outcome.unwrap_err().code, ErrorCode::Internal);
    }
    assert_eq!(svc.stats().failed, 3);
    assert!(xqr_faults::fires_at("plans.insert") >= 3);
}
