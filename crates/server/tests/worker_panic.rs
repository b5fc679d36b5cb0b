//! Regression: a panic inside a tenant's matcher worker must cross the
//! wire as a typed [`MatchError::WorkerPanicked`] error frame — it must
//! not unwind the connection worker, leak one of the tenant's K query
//! slots, or take the server down. The serving path is lint-enforced
//! panic-free (`cm_analyze`'s `no-panic` rule), so the only panics left
//! are the ones a matcher backend itself raises; this test injects one.

use cm_core::{Backend, BitString, ErasedMatcher, MatchError, MatchStats};
use cm_server::{MatchClient, MatchServer, TenantAccess, TenantRegistry};

const KEY: [u8; 32] = [0x42; 32];

/// The query pattern that detonates [`PanicMatcher::find_all`].
fn trigger() -> BitString {
    BitString::from_ascii("boom")
}

/// A plaintext matcher that panics on one specific query and behaves
/// normally otherwise, so the same tenant can prove it still serves
/// after a query unwound.
struct PanicMatcher {
    db: Option<BitString>,
}

impl ErasedMatcher for PanicMatcher {
    fn backend(&self) -> Backend {
        Backend::Plain
    }

    fn load_database(&mut self, data: &BitString) -> Result<(), MatchError> {
        self.db = Some(data.clone());
        Ok(())
    }

    fn has_database(&self) -> bool {
        self.db.is_some()
    }

    fn database_bytes(&self) -> Option<u64> {
        self.db.as_ref().map(|d| d.len().div_ceil(8) as u64)
    }

    fn find_all(&self, query: &BitString) -> Result<(Vec<usize>, Vec<MatchStats>), MatchError> {
        let db = self.db.as_ref().ok_or(MatchError::NoDatabase)?;
        if *query == trigger() {
            panic!("injected matcher fault");
        }
        Ok((db.find_all(query), vec![MatchStats::default()]))
    }

    // Registered in-process and never demoted: no wire form is needed.
    fn export_database(&self) -> Result<Vec<u8>, MatchError> {
        Err(MatchError::Internal(
            "the test matcher has no wire database",
        ))
    }

    fn load_database_wire(&mut self, _encoded: &[u8]) -> Result<(), MatchError> {
        Err(MatchError::Internal(
            "the test matcher has no wire database",
        ))
    }
}

#[test]
fn a_panicking_worker_answers_with_a_wire_error_not_a_dead_connection() {
    let database = BitString::from_ascii("the quick brown fox jumps over the lazy dog");
    let mut registry = TenantRegistry::new();
    registry
        .register_with_workers(
            "victim",
            Box::new(PanicMatcher { db: None }),
            2,
            &KEY,
            &database,
        )
        .unwrap();
    let server = MatchServer::new(registry).spawn("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut client = MatchClient::connect(addr).unwrap();
    let access = TenantAccess::new("victim", &KEY);

    // The injected panic arrives as the typed error, not a hung or
    // reset connection.
    let err = client.search_bits(&access, &trigger()).unwrap_err();
    assert_eq!(err, MatchError::WorkerPanicked);

    // The SAME connection serves the next query: the connection worker
    // caught the unwind and answered, it did not die with the matcher.
    let pattern = BitString::from_ascii("quick");
    let reply = client.search_bits(&access, &pattern).unwrap();
    assert_eq!(reply.indices, database.find_all(&pattern));

    // The unwound query gave its slot back (K = 2): a second detonation
    // still reports the typed error (nothing leaked), and good queries
    // still find a free slot after that.
    let err = client.search_bits(&access, &trigger()).unwrap_err();
    assert_eq!(err, MatchError::WorkerPanicked);
    let reply = client.search_bits(&access, &pattern).unwrap();
    assert_eq!(reply.indices, database.find_all(&pattern));

    // Fresh connections are accepted and the registry still answers
    // control-plane requests — the server itself never noticed.
    let mut second = MatchClient::connect(addr).unwrap();
    let tenants = second.tenants().unwrap();
    assert_eq!(tenants.len(), 1);
    assert_eq!(tenants[0].id, "victim");
    let (_stats, queries) = second.tenant_stats("victim").unwrap();
    assert_eq!(queries, 2, "only the successful queries are recorded");

    drop(client);
    drop(second);
    server.shutdown();
}
