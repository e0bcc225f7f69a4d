//! The multi-tenant layer: namespaces, quotas, typed admission errors.
//!
//! A *tenant* is an isolation domain: it owns compiled specs, each spec
//! owns a running [`Engine`] and its open sessions, and everything the
//! tenant does is metered against its [`TenantQuotas`] and counted under
//! `serve.tenant.<name>.*` in one shared [`rega_obs::Registry`]. Admission
//! control is all-or-nothing and *typed*: a rejected request carries an
//! [`AdmissionError`] with a machine-readable `code`, never a bare string,
//! so clients can distinguish "you are over quota" (back off) from "no
//! such spec" (client bug) from "the server is draining" (reconnect
//! elsewhere).
//!
//! Quota semantics:
//!
//! * **tenants** — the registry admits at most `max_tenants` namespaces;
//!   `hello` for a fresh name past the cap is [`AdmissionError::TenantLimit`].
//! * **specs** — each tenant may hold at most `max_specs` compiled specs;
//!   compilation runs under the *tightening* of the server-wide
//!   [`BudgetSpec`] with the tenant's own
//!   ([`BudgetSpec::tightened`]), so a tenant can
//!   lower but never raise the global compile ceilings.
//! * **sessions** — at most `max_sessions` sessions open across the
//!   tenant's specs; a session must be opened before events for it are
//!   accepted, and its terminal event releases the slot.
//! * **quarantine** — the tenant's `quarantine_cap` becomes the engine's
//!   [`EngineConfig::quarantine_cap`], so transport-fault tolerance is a
//!   per-tenant policy too.

use crate::proto::decode_event_doc;
use rega_data::{Budget, BudgetSpec, GovernError};
use rega_obs::{Counter, Gauge, Registry, ScopedRegistry};
use rega_stream::{
    check_arity, CompiledSpec, Engine, EngineConfig, EngineReport, Event, EventError,
    SessionStatus, SubmitError,
};
use serde_json::{json, Value as Json};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Per-tenant resource ceilings.
#[derive(Clone, Debug)]
pub struct TenantQuotas {
    /// Compiled specs the tenant may hold at once.
    pub max_specs: usize,
    /// Sessions the tenant may have open at once, across all its specs.
    pub max_sessions: usize,
    /// Per-session quarantine budget for transport-faulty events
    /// (`0` = strict: a malformed step event violates its session).
    pub quarantine_cap: u64,
    /// Budget for the tenant's spec compilations. Applied as
    /// [`BudgetSpec::tightened`] against the
    /// server-wide ceiling, so it can only tighten, never loosen.
    pub budget: BudgetSpec,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas {
            max_specs: 8,
            max_sessions: 1024,
            quarantine_cap: 0,
            budget: BudgetSpec::none(),
        }
    }
}

/// Why the tenant layer rejected a request. Every variant has a stable
/// machine-readable [`code`](AdmissionError::code) used in the wire
/// response's `error.code` field.
#[derive(Clone, Debug)]
pub enum AdmissionError {
    /// The server already holds its maximum number of tenants.
    TenantLimit {
        /// The server-wide tenant cap.
        max: usize,
    },
    /// The tenant already holds its maximum number of compiled specs.
    SpecLimit {
        /// The offending tenant.
        tenant: String,
        /// Its spec quota.
        max: usize,
    },
    /// The tenant already has its maximum number of sessions open.
    SessionLimit {
        /// The offending tenant.
        tenant: String,
        /// Its session quota.
        max: usize,
    },
    /// The request names a tenant that was never admitted with `hello`.
    UnknownTenant {
        /// The unknown name.
        tenant: String,
    },
    /// The request names a spec the tenant does not hold.
    UnknownSpec {
        /// The owning tenant.
        tenant: String,
        /// The unknown spec name.
        spec: String,
    },
    /// An event arrived for a session that was never opened (or whose
    /// terminal event already released it).
    UnknownSession {
        /// The session the event named.
        session: String,
    },
    /// The tenant's name sanitizes to the same metrics segment as an
    /// already-admitted tenant's: admitting it would silently merge the
    /// two tenants' `serve.tenant.<segment>.*` counters.
    TenantNameCollision {
        /// The rejected name.
        tenant: String,
        /// The admitted tenant it collides with.
        existing: String,
        /// The shared sanitized segment.
        segment: String,
    },
    /// The tenant already holds a spec under this name.
    DuplicateSpec {
        /// The owning tenant.
        tenant: String,
        /// The colliding name.
        spec: String,
    },
    /// The session is already open (double `open-session`).
    DuplicateSession {
        /// The colliding session id.
        session: String,
    },
    /// The spec text failed to parse or compile.
    SpecInvalid {
        /// The parser/compiler message.
        message: String,
    },
    /// Spec compilation tripped the (tightened) resource budget.
    Govern(GovernError),
    /// The server is draining and admits no new work.
    Draining,
    /// The spec was handed off to another node and is mid-migration:
    /// retry against the cluster after the suggested delay. Typed so a
    /// rebalance reads as *degraded*, never as "no such spec".
    Rebalancing {
        /// Suggested client back-off before retrying.
        retry_after_ms: u64,
    },
}

/// Suggested retry delay carried by [`AdmissionError::Rebalancing`] for
/// specs handed off to another node.
pub const HANDOFF_RETRY_MS: u64 = 50;

impl AdmissionError {
    /// The stable machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            AdmissionError::TenantLimit { .. } => "tenant-limit",
            AdmissionError::SpecLimit { .. } => "spec-limit",
            AdmissionError::SessionLimit { .. } => "session-limit",
            AdmissionError::UnknownTenant { .. } => "unknown-tenant",
            AdmissionError::UnknownSpec { .. } => "unknown-spec",
            AdmissionError::UnknownSession { .. } => "unknown-session",
            AdmissionError::TenantNameCollision { .. } => "tenant-name-collision",
            AdmissionError::DuplicateSpec { .. } => "duplicate-spec",
            AdmissionError::DuplicateSession { .. } => "duplicate-session",
            AdmissionError::SpecInvalid { .. } => "spec-invalid",
            AdmissionError::Govern(_) => "resource-budget",
            AdmissionError::Draining => "draining",
            AdmissionError::Rebalancing { .. } => "rebalancing",
        }
    }

    /// The wire-format error object: `{"code", "message", …detail}`.
    pub fn to_json(&self) -> Json {
        let code = self.code();
        let message = self.to_string();
        match self {
            AdmissionError::TenantLimit { max } => {
                json!({"code": code, "message": message, "max": *max})
            }
            AdmissionError::SpecLimit { tenant, max }
            | AdmissionError::SessionLimit { tenant, max } => json!({
                "code": code, "message": message,
                "tenant": tenant.as_str(), "max": *max,
            }),
            AdmissionError::UnknownTenant { tenant } => {
                json!({"code": code, "message": message, "tenant": tenant.as_str()})
            }
            AdmissionError::UnknownSpec { tenant, spec }
            | AdmissionError::DuplicateSpec { tenant, spec } => json!({
                "code": code, "message": message,
                "tenant": tenant.as_str(), "spec": spec.as_str(),
            }),
            AdmissionError::UnknownSession { session }
            | AdmissionError::DuplicateSession { session } => {
                json!({"code": code, "message": message, "session": session.as_str()})
            }
            AdmissionError::TenantNameCollision {
                tenant,
                existing,
                segment,
            } => json!({
                "code": code, "message": message,
                "tenant": tenant.as_str(), "existing": existing.as_str(),
                "segment": segment.as_str(),
            }),
            AdmissionError::Govern(g) => json!({
                "code": code, "message": message,
                "kind": g.kind(),
                "phase": g.phase(),
                "nodes": g.nodes(),
                "elapsed_ms": g.elapsed_ms(),
            }),
            AdmissionError::Rebalancing { retry_after_ms } => json!({
                "code": code, "message": message,
                "retry_after_ms": *retry_after_ms,
            }),
            AdmissionError::SpecInvalid { .. } | AdmissionError::Draining => {
                json!({"code": code, "message": message})
            }
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::TenantLimit { max } => {
                write!(f, "the server already holds {max} tenants")
            }
            AdmissionError::SpecLimit { tenant, max } => {
                write!(f, "tenant `{tenant}` already holds {max} specs")
            }
            AdmissionError::SessionLimit { tenant, max } => {
                write!(f, "tenant `{tenant}` already has {max} sessions open")
            }
            AdmissionError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant `{tenant}` (send `hello` first)")
            }
            AdmissionError::UnknownSpec { tenant, spec } => {
                write!(f, "tenant `{tenant}` holds no spec `{spec}`")
            }
            AdmissionError::UnknownSession { session } => {
                write!(
                    f,
                    "session `{session}` is not open (send `open-session` first)"
                )
            }
            AdmissionError::TenantNameCollision {
                tenant,
                existing,
                segment,
            } => write!(
                f,
                "tenant name `{tenant}` collides with admitted tenant \
                 `{existing}`: both sanitize to metrics segment `{segment}`"
            ),
            AdmissionError::DuplicateSpec { tenant, spec } => {
                write!(f, "tenant `{tenant}` already holds a spec named `{spec}`")
            }
            AdmissionError::DuplicateSession { session } => {
                write!(f, "session `{session}` is already open")
            }
            AdmissionError::SpecInvalid { message } => write!(f, "invalid spec: {message}"),
            AdmissionError::Govern(g) => write!(f, "compilation budget tripped: {g}"),
            AdmissionError::Draining => write!(f, "the server is draining"),
            AdmissionError::Rebalancing { retry_after_ms } => write!(
                f,
                "the spec is rebalancing to another node; retry after {retry_after_ms} ms"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why one event in an `event` / `event-batch` request was rejected.
#[derive(Debug)]
pub enum IngestError {
    /// Admission control rejected it (unknown tenant/spec/session, drain).
    Admission(AdmissionError),
    /// The event document failed to parse or validate; `index` is its
    /// 0-based position in the batch.
    Event {
        /// Position in the request's event array.
        index: usize,
        /// The underlying parse/validation error.
        error: EventError,
    },
    /// The engine's ingest queue stayed full past its submit timeout:
    /// the server is overloaded and *shed* the event instead of blocking
    /// the connection on it. Typed with a suggested retry delay — the
    /// graceful-degradation contract at the serve layer.
    Overloaded {
        /// The engine shard whose queue was full.
        shard: usize,
        /// Suggested client back-off before retrying.
        retry_after_ms: u64,
    },
    /// The engine refused the submission (dead workers).
    Submit(SubmitError),
}

impl IngestError {
    /// The wire-format error object.
    pub fn to_json(&self) -> Json {
        match self {
            IngestError::Admission(a) => a.to_json(),
            IngestError::Event { index, error } => json!({
                "code": "bad-event",
                "index": *index,
                "message": error.to_string(),
            }),
            IngestError::Overloaded {
                shard,
                retry_after_ms,
            } => json!({
                "code": "overloaded",
                "message": self.to_string(),
                "shard": *shard,
                "retry_after_ms": *retry_after_ms,
            }),
            IngestError::Submit(e) => json!({
                "code": "submit-failed",
                "message": e.to_string(),
            }),
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Admission(a) => a.fmt(f),
            IngestError::Event { index, error } => write!(f, "event {index}: {error}"),
            IngestError::Overloaded {
                shard,
                retry_after_ms,
            } => write!(
                f,
                "shard {shard} is overloaded; event shed, retry after {retry_after_ms} ms"
            ),
            IngestError::Submit(e) => write!(f, "submit failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<AdmissionError> for IngestError {
    fn from(a: AdmissionError) -> Self {
        IngestError::Admission(a)
    }
}

/// One compiled spec with its running engine. Submissions go through
/// transient [`Engine::handle`] clones, so removing the entry (and letting
/// in-flight submits return) is what lets [`Engine::finish`] drain.
struct SpecEntry {
    engine: Engine,
    registers: usize,
    /// Sessions currently open against this spec.
    sessions: BTreeSet<String>,
}

/// Per-tenant counters, registered as `serve.tenant.<name>.*`.
struct TenantMetrics {
    events_ingested: Counter,
    events_rejected: Counter,
    /// Events shed with a typed `overloaded` rejection (queue full past
    /// the submit timeout). Counted separately from `events.rejected`
    /// so operators can tell overload from client error.
    events_shed: Counter,
    admission_rejected: Counter,
    specs_loaded: Counter,
    sessions_open: Gauge,
}

impl TenantMetrics {
    fn new(scope: &ScopedRegistry) -> Self {
        TenantMetrics {
            events_ingested: scope.counter("events.ingested"),
            events_rejected: scope.counter("events.rejected"),
            events_shed: scope.counter("events.shed"),
            admission_rejected: scope.counter("admission.rejected"),
            specs_loaded: scope.counter("specs.loaded"),
            sessions_open: scope.gauge("sessions.open"),
        }
    }
}

/// One admitted tenant.
struct Tenant {
    name: String,
    quotas: TenantQuotas,
    metrics: TenantMetrics,
    specs: Mutex<BTreeMap<String, SpecEntry>>,
    /// Specs handed off to another node: requests naming them answer
    /// [`AdmissionError::Rebalancing`] instead of `unknown-spec`, until a
    /// `load-spec` under the same name reclaims the slot.
    handed_off: Mutex<BTreeSet<String>>,
}

impl Tenant {
    fn open_sessions(&self) -> usize {
        let specs = self.specs.lock().unwrap();
        specs.values().map(|s| s.sessions.len()).sum()
    }

    /// The typed error for a spec that is not in the map: `rebalancing`
    /// when it was handed off to another node, `unknown-spec` otherwise.
    fn missing_spec(&self, spec: &str) -> AdmissionError {
        if self.handed_off.lock().unwrap().contains(spec) {
            AdmissionError::Rebalancing {
                retry_after_ms: HANDOFF_RETRY_MS,
            }
        } else {
            AdmissionError::UnknownSpec {
                tenant: self.name.clone(),
                spec: spec.to_string(),
            }
        }
    }
}

/// Suggested retry delay carried by the typed `overloaded` shed.
pub const OVERLOAD_RETRY_MS: u64 = 25;

/// The tenant registry: admission control, per-tenant state, drain.
pub struct TenantRegistry {
    max_tenants: usize,
    default_quotas: TenantQuotas,
    /// The server-wide compile ceiling every tenant budget is tightened
    /// against.
    server_budget: BudgetSpec,
    /// Engine sizing shared by every spec's engine (the tenant's
    /// `quarantine_cap` overrides the template's).
    engine_template: EngineConfig,
    registry: Arc<Registry>,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
    draining: AtomicBool,
}

impl TenantRegistry {
    /// A registry admitting at most `max_tenants` namespaces, compiling
    /// under `server_budget`, defaulting new tenants to `default_quotas`,
    /// and sizing engines from `engine_template`.
    pub fn new(
        max_tenants: usize,
        default_quotas: TenantQuotas,
        server_budget: BudgetSpec,
        engine_template: EngineConfig,
        registry: Arc<Registry>,
    ) -> Self {
        TenantRegistry {
            max_tenants,
            default_quotas,
            server_budget,
            engine_template,
            registry,
            tenants: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
        }
    }

    /// The shared metrics registry (server-wide snapshot source).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one command's service latency under the tenant's scope
    /// (`serve.tenant.<name>.cmd.<cmd>.latency`). Only *admitted* tenants
    /// get a series — client-invented names must not mint unbounded
    /// metric cardinality. `cmd` is a static command name, never input.
    pub fn record_command_latency(&self, tenant: &str, cmd: &'static str, ns: u64) {
        if !self.tenants.lock().unwrap().contains_key(tenant) {
            return;
        }
        ScopedRegistry::new(Arc::clone(&self.registry), &["serve", "tenant", tenant])
            .histogram(&format!("cmd.{cmd}.latency"))
            .record_ns(ns);
    }

    /// Flips the registry into draining mode: every admission request is
    /// rejected with [`AdmissionError::Draining`] from now on. Events for
    /// *already open* sessions are still accepted until their engines are
    /// finished, so in-flight work completes.
    pub fn start_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`start_draining`](TenantRegistry::start_draining) was called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn check_not_draining(&self) -> Result<(), AdmissionError> {
        if self.is_draining() {
            Err(AdmissionError::Draining)
        } else {
            Ok(())
        }
    }

    fn get(&self, tenant: &str) -> Result<Arc<Tenant>, AdmissionError> {
        self.tenants
            .lock()
            .unwrap()
            .get(tenant)
            .cloned()
            .ok_or_else(|| AdmissionError::UnknownTenant {
                tenant: tenant.to_string(),
            })
    }

    /// Admits a tenant (idempotent: re-greeting an existing tenant
    /// succeeds). Returns whether the tenant is newly created.
    pub fn hello(&self, name: &str) -> Result<bool, AdmissionError> {
        self.check_not_draining()?;
        let mut tenants = self.tenants.lock().unwrap();
        if tenants.contains_key(name) {
            return Ok(false);
        }
        if tenants.len() >= self.max_tenants {
            return Err(AdmissionError::TenantLimit {
                max: self.max_tenants,
            });
        }
        // Distinct names whose metrics segments sanitize identically would
        // share one `serve.tenant.<segment>.*` namespace — their counters
        // (and quota accounting derived from them) would silently merge.
        // Detect the collision at admission instead. O(tenants) per hello,
        // bounded by `max_tenants`.
        let segment = rega_obs::sanitize_segment(name);
        if let Some(existing) = tenants
            .keys()
            .find(|t| rega_obs::sanitize_segment(t) == segment)
        {
            return Err(AdmissionError::TenantNameCollision {
                tenant: name.to_string(),
                existing: existing.clone(),
                segment,
            });
        }
        let scope = ScopedRegistry::new(Arc::clone(&self.registry), &["serve", "tenant", name]);
        tenants.insert(
            name.to_string(),
            Arc::new(Tenant {
                name: name.to_string(),
                quotas: self.default_quotas.clone(),
                metrics: TenantMetrics::new(&scope),
                specs: Mutex::new(BTreeMap::new()),
                handed_off: Mutex::new(BTreeSet::new()),
            }),
        );
        Ok(true)
    }

    /// Compiles `spec_text` for `tenant` under the tightened budget and
    /// starts its engine. Counts against the tenant's spec quota.
    pub fn load_spec(
        &self,
        tenant: &str,
        name: &str,
        spec_text: &str,
        view: Option<u16>,
    ) -> Result<usize, AdmissionError> {
        self.check_not_draining()?;
        let t = self.get(tenant)?;
        // Quota and duplicate checks up front — but compile *outside* the
        // spec lock, so one tenant's slow compilation never blocks another
        // connection's ingest for the same tenant.
        {
            let specs = t.specs.lock().unwrap();
            if specs.contains_key(name) {
                t.metrics.admission_rejected.inc();
                return Err(AdmissionError::DuplicateSpec {
                    tenant: tenant.to_string(),
                    spec: name.to_string(),
                });
            }
            if specs.len() >= t.quotas.max_specs {
                t.metrics.admission_rejected.inc();
                return Err(AdmissionError::SpecLimit {
                    tenant: tenant.to_string(),
                    max: t.quotas.max_specs,
                });
            }
        }
        let ext = rega_core::spec::parse_spec(spec_text).map_err(|e| {
            t.metrics.admission_rejected.inc();
            AdmissionError::SpecInvalid {
                message: e.to_string(),
            }
        })?;
        let db = rega_data::Database::new(ext.ra().schema().clone());
        let effective = self.server_budget.tightened(&t.quotas.budget);
        let budget = Budget::start(&effective);
        let compiled = match CompiledSpec::compile_governed(ext, db, view, &budget) {
            Ok(c) => c,
            Err(rega_core::CoreError::Govern(g)) => {
                t.metrics.admission_rejected.inc();
                return Err(AdmissionError::Govern(g));
            }
            Err(e) => {
                t.metrics.admission_rejected.inc();
                return Err(AdmissionError::SpecInvalid {
                    message: e.to_string(),
                });
            }
        };
        let registers = compiled.registers();
        let mut config = self.engine_template.clone();
        config.quarantine_cap = t.quotas.quarantine_cap;
        let engine = Engine::start(Arc::new(compiled), config);
        let mut specs = t.specs.lock().unwrap();
        // Re-check under the lock: a racing load-spec may have taken the
        // name or the last quota slot while we compiled.
        if specs.contains_key(name) {
            t.metrics.admission_rejected.inc();
            return Err(AdmissionError::DuplicateSpec {
                tenant: tenant.to_string(),
                spec: name.to_string(),
            });
        }
        if specs.len() >= t.quotas.max_specs {
            t.metrics.admission_rejected.inc();
            return Err(AdmissionError::SpecLimit {
                tenant: tenant.to_string(),
                max: t.quotas.max_specs,
            });
        }
        specs.insert(
            name.to_string(),
            SpecEntry {
                engine,
                registers,
                sessions: BTreeSet::new(),
            },
        );
        // Reloading a handed-off name means this node owns the spec
        // again: clear the rebalancing marker.
        t.handed_off.lock().unwrap().remove(name);
        t.metrics.specs_loaded.inc();
        Ok(registers)
    }

    /// Opens a session against `spec`, admitted against the tenant's
    /// session quota.
    pub fn open_session(
        &self,
        tenant: &str,
        spec: &str,
        session: &str,
    ) -> Result<(), AdmissionError> {
        self.check_not_draining()?;
        let t = self.get(tenant)?;
        let open = t.open_sessions();
        let mut specs = t.specs.lock().unwrap();
        let entry = specs
            .get_mut(spec)
            .ok_or_else(|| t.missing_spec(spec))
            .inspect_err(|_| {
                t.metrics.admission_rejected.inc();
            })?;
        if entry.sessions.contains(session) {
            t.metrics.admission_rejected.inc();
            return Err(AdmissionError::DuplicateSession {
                session: session.to_string(),
            });
        }
        if open >= t.quotas.max_sessions {
            t.metrics.admission_rejected.inc();
            return Err(AdmissionError::SessionLimit {
                tenant: tenant.to_string(),
                max: t.quotas.max_sessions,
            });
        }
        entry.sessions.insert(session.to_string());
        t.metrics.sessions_open.inc();
        Ok(())
    }

    /// Ingests one batch of event documents for `(tenant, spec)`: each is
    /// decoded with [`decode_event_doc`] (the batch monitor's decoder;
    /// object payloads are not parsed a second time) and handed to
    /// [`TenantRegistry::ingest_events`].
    pub fn ingest(
        &self,
        tenant: &str,
        spec: &str,
        events: &[Json],
    ) -> Result<u64, (u64, IngestError)> {
        self.ingest_events(tenant, spec, events.iter().map(decode_event_doc))
    }

    /// Ingests decoded events for `(tenant, spec)`, in order. The tenant
    /// and the spec are resolved first, so their errors take precedence
    /// over any event's. Each event must then have decoded, must carry the
    /// spec's register arity, must name an *open* session, and is
    /// submitted through the engine's concurrent-ingest handle.
    /// Processing stops at the first error; the return value counts the
    /// events accepted before it.
    pub fn ingest_events(
        &self,
        tenant: &str,
        spec: &str,
        events: impl IntoIterator<Item = Result<Event, EventError>>,
    ) -> Result<u64, (u64, IngestError)> {
        let t = self.get(tenant).map_err(|e| (0, IngestError::from(e)))?;
        // Clone the handle out of the lock: submission may back-pressure,
        // and stalling inside the spec map lock would couple every
        // connection of the tenant to this one's flow control.
        let (handle, registers) = {
            let specs = t.specs.lock().unwrap();
            let entry = specs.get(spec).ok_or_else(|| {
                t.metrics.admission_rejected.inc();
                (0, IngestError::from(t.missing_spec(spec)))
            })?;
            (entry.engine.handle(), entry.registers)
        };
        let mut accepted = 0u64;
        for (index, decoded) in events.into_iter().enumerate() {
            let fail = move |e: IngestError| (accepted, e);
            let event = decoded
                .and_then(|event| check_arity(event, registers))
                .map_err(|error| {
                    t.metrics.events_rejected.inc();
                    fail(IngestError::Event { index, error })
                })?;
            // Only open sessions may carry traffic; a terminal event
            // releases the quota slot (and keeps the released name, in
            // case the engine sheds the event below).
            let released = {
                let mut specs = t.specs.lock().unwrap();
                let Some(entry) = specs.get_mut(spec) else {
                    t.metrics.events_rejected.inc();
                    return Err(fail(IngestError::from(t.missing_spec(spec))));
                };
                if !entry.sessions.contains(event.session()) {
                    t.metrics.events_rejected.inc();
                    t.metrics.admission_rejected.inc();
                    return Err(fail(IngestError::from(AdmissionError::UnknownSession {
                        session: event.session().to_string(),
                    })));
                }
                match event {
                    Event::End { ref session } => {
                        t.metrics.sessions_open.dec();
                        entry.sessions.take(session.as_str())
                    }
                    Event::Step { .. } => None,
                }
            };
            handle.submit(event).map_err(|e| {
                t.metrics.events_rejected.inc();
                // A terminal event that never reached the engine must not
                // keep its released quota slot: re-open it so the
                // suggested retry is not answered with `unknown-session`.
                if let Some(session) = released {
                    let mut specs = t.specs.lock().unwrap();
                    if let Some(entry) = specs.get_mut(spec) {
                        if entry.sessions.insert(session) {
                            t.metrics.sessions_open.inc();
                        }
                    }
                }
                // Queue-full past the submit timeout is overload, not a
                // client error: shed with a typed retry hint and count it
                // under its own series.
                fail(match e {
                    SubmitError::QueueFull { shard } => {
                        t.metrics.events_shed.inc();
                        IngestError::Overloaded {
                            shard,
                            retry_after_ms: OVERLOAD_RETRY_MS,
                        }
                    }
                    other => IngestError::Submit(other),
                })
            })?;
            accepted += 1;
            t.metrics.events_ingested.inc();
        }
        Ok(accepted)
    }

    /// A live snapshot of one tenant: its specs, open sessions, and the
    /// `serve.tenant.<name>.*` slice of the metrics registry.
    pub fn snapshot(&self, tenant: &str) -> Result<Json, AdmissionError> {
        let t = self.get(tenant)?;
        let specs = t.specs.lock().unwrap();
        let spec_list: Vec<Json> = specs
            .iter()
            .map(|(name, entry)| {
                json!({
                    "spec": name.as_str(),
                    "registers": entry.registers,
                    "open_sessions": entry.sessions.iter().cloned().collect::<Vec<_>>(),
                    "engine": entry.engine.metrics().snapshot(),
                })
            })
            .collect();
        drop(specs);
        let prefix = ScopedRegistry::new(Arc::clone(&self.registry), &["serve", "tenant", tenant])
            .prefix()
            .to_string();
        let all = self.registry.snapshot();
        let mut mine = BTreeMap::new();
        if let Some(map) = all.as_object() {
            for (name, value) in map {
                if name.starts_with(&format!("{prefix}.")) {
                    mine.insert(name.clone(), value.clone());
                }
            }
        }
        Ok(json!({
            "tenant": t.name.as_str(),
            "specs": Json::Array(spec_list),
            "metrics": Json::Object(mine),
        }))
    }

    /// Closes one session: its terminal event is submitted (so the engine
    /// reports it `Ended`, exactly as a terminal JSONL event would) and
    /// its quota slot is released.
    pub fn close_session(
        &self,
        tenant: &str,
        spec: &str,
        session: &str,
    ) -> Result<(), IngestError> {
        let end = json!({"session": session, "end": true});
        self.ingest(tenant, spec, &[end])
            .map(|_| ())
            .map_err(|(_, e)| e)
    }

    /// Closes one spec: the engine is drained through `Engine::finish`
    /// (every queued event is processed) and the final report returned,
    /// with violations shaped exactly like the batch monitor's summary
    /// entries.
    pub fn close_spec(&self, tenant: &str, spec: &str) -> Result<Json, AdmissionError> {
        let t = self.get(tenant)?;
        let entry = {
            let mut specs = t.specs.lock().unwrap();
            specs.remove(spec).ok_or_else(|| t.missing_spec(spec))?
        };
        for _ in &entry.sessions {
            t.metrics.sessions_open.dec();
        }
        let report = entry.engine.finish();
        Ok(report_json(spec, &report))
    }

    /// Hands a spec off to another node: its engine is drained (every
    /// queued event processed, every session's verdict final) and the
    /// final report returned for the new owner to account against — and
    /// unlike [`close_spec`](TenantRegistry::close_spec), the name is
    /// remembered: until a `load-spec` reclaims it, requests naming the
    /// spec answer a typed [`AdmissionError::Rebalancing`] with a retry
    /// delay instead of `unknown-spec`, so clients see a migration as
    /// *degraded*, never as data loss.
    pub fn handoff(&self, tenant: &str, spec: &str) -> Result<Json, AdmissionError> {
        let t = self.get(tenant)?;
        {
            let specs = t.specs.lock().unwrap();
            if !specs.contains_key(spec) {
                // Never loaded here (unknown-spec), or already mid-handoff
                // (rebalancing) — either way, typed.
                return Err(t.missing_spec(spec));
            }
            // Mark while still holding the spec map lock, so no request
            // can observe the entry gone without the marker set.
            t.handed_off.lock().unwrap().insert(spec.to_string());
        }
        self.close_spec(tenant, spec)
    }

    /// Closes a whole tenant: every spec is drained and the namespace
    /// removed. Returns one report per spec.
    pub fn close_tenant(&self, tenant: &str) -> Result<Json, AdmissionError> {
        // Remove the tenant from the registry first so no new work can
        // race the drain; ingest against it now reports UnknownTenant.
        let t = {
            let mut tenants = self.tenants.lock().unwrap();
            tenants
                .remove(tenant)
                .ok_or_else(|| AdmissionError::UnknownTenant {
                    tenant: tenant.to_string(),
                })?
        };
        let specs: Vec<(String, SpecEntry)> = {
            let mut map = t.specs.lock().unwrap();
            std::mem::take(&mut *map).into_iter().collect()
        };
        let mut reports = Vec::new();
        for (name, entry) in specs {
            for _ in &entry.sessions {
                t.metrics.sessions_open.dec();
            }
            let report = entry.engine.finish();
            reports.push(report_json(&name, &report));
        }
        Ok(json!({"tenant": t.name.as_str(), "specs": Json::Array(reports)}))
    }

    /// Drains everything: every tenant's every engine is finished and the
    /// combined final report returned. Used by the server's graceful
    /// shutdown after [`start_draining`](TenantRegistry::start_draining).
    pub fn drain_all(&self) -> Json {
        let names: Vec<String> = self.tenants.lock().unwrap().keys().cloned().collect();
        let mut reports = Vec::new();
        for name in names {
            if let Ok(report) = self.close_tenant(&name) {
                reports.push(report);
            }
        }
        json!({"tenants": Json::Array(reports)})
    }

    /// Server-wide stats: tenant count, per-tenant open sessions and spec
    /// counts, and the full metrics registry snapshot.
    pub fn stats(&self) -> Json {
        let tenants = self.tenants.lock().unwrap();
        let per_tenant: Vec<Json> = tenants
            .values()
            .map(|t| {
                let specs = t.specs.lock().unwrap();
                json!({
                    "tenant": t.name.as_str(),
                    "specs": specs.len(),
                    "open_sessions": specs.values().map(|s| s.sessions.len()).sum::<usize>(),
                })
            })
            .collect();
        json!({
            "tenants": Json::Array(per_tenant),
            "draining": self.is_draining(),
            "metrics": self.registry.snapshot(),
        })
    }
}

/// Renders an [`EngineReport`] in the batch monitor's summary shape: the
/// `violations` entries are field-for-field identical to `rega monitor`'s
/// (`{"session","reason","events"}`), which is what the loopback
/// differential test compares byte-for-byte.
fn report_json(spec: &str, report: &EngineReport) -> Json {
    let mut violations = Vec::new();
    for outcome in report.violations() {
        if let SessionStatus::Violated(kind) = &outcome.status {
            violations.push(json!({
                "session": outcome.session.as_str(),
                "reason": kind.to_string(),
                "events": outcome.events,
            }));
        }
    }
    let outcomes: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            json!({
                "session": o.session.as_str(),
                "status": status_str(&o.status),
                "events": o.events,
                "quarantined": o.quarantined,
            })
        })
        .collect();
    json!({
        "spec": spec,
        "sessions": report.outcomes.len(),
        "violations": Json::Array(violations),
        "outcomes": Json::Array(outcomes),
        "quarantined": report.metrics.events_quarantined.get(),
        "worker_panics": report.metrics.worker_panics.get(),
    })
}

fn status_str(status: &SessionStatus) -> &'static str {
    match status {
        SessionStatus::Active => "active",
        SessionStatus::Ended => "ended",
        SessionStatus::Violated(_) => "violated",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_text() -> &'static str {
        "registers 1\nstate p init accept\ntrans p -> p : x1 = x1\n"
    }

    fn registry() -> TenantRegistry {
        TenantRegistry::new(
            2,
            TenantQuotas {
                max_specs: 2,
                max_sessions: 3,
                quarantine_cap: 0,
                budget: BudgetSpec::none(),
            },
            BudgetSpec::none(),
            EngineConfig {
                shards: 2,
                workers: 2,
                queue_capacity: 64,
                ..EngineConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    #[test]
    fn quotas_are_enforced_with_typed_errors() {
        let reg = registry();
        assert!(reg.hello("a").unwrap());
        assert!(!reg.hello("a").unwrap(), "hello is idempotent");
        assert!(reg.hello("b").unwrap());
        // Third tenant: over the server cap.
        match reg.hello("c") {
            Err(AdmissionError::TenantLimit { max: 2 }) => {}
            other => panic!("expected TenantLimit, got {other:?}"),
        }

        reg.load_spec("a", "s1", spec_text(), None).unwrap();
        reg.load_spec("a", "s2", spec_text(), None).unwrap();
        match reg.load_spec("a", "s3", spec_text(), None) {
            Err(AdmissionError::SpecLimit { max: 2, .. }) => {}
            other => panic!("expected SpecLimit, got {other:?}"),
        }
        match reg.load_spec("a", "s1", spec_text(), None) {
            Err(AdmissionError::DuplicateSpec { .. }) => {}
            other => panic!("expected DuplicateSpec, got {other:?}"),
        }

        for i in 0..3 {
            reg.open_session("a", "s1", &format!("sess-{i}")).unwrap();
        }
        match reg.open_session("a", "s2", "sess-3") {
            Err(AdmissionError::SessionLimit { max: 3, .. }) => {}
            other => panic!("expected SessionLimit, got {other:?}"),
        }
        // Closing a session releases its slot.
        reg.close_session("a", "s1", "sess-0").unwrap();
        reg.open_session("a", "s2", "sess-3").unwrap();

        // Events for never-opened sessions are rejected, not auto-created.
        let stray = json!({"session": "ghost", "state": "p", "regs": [1u64]});
        match reg.ingest("a", "s1", &[stray]) {
            Err((0, IngestError::Admission(AdmissionError::UnknownSession { .. }))) => {}
            other => panic!("expected UnknownSession, got {other:?}"),
        }
        let reports = reg.close_tenant("a").unwrap();
        assert_eq!(reports["specs"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn colliding_tenant_names_are_rejected_at_admission() {
        let reg = registry();
        reg.hello("acme corp").unwrap();
        // `acme corp` and `acme*corp` both sanitize to `acme_corp`; letting
        // the second in would merge the two tenants' metric series.
        let err = reg.hello("acme*corp").unwrap_err();
        assert_eq!(err.code(), "tenant-name-collision");
        match &err {
            AdmissionError::TenantNameCollision {
                tenant,
                existing,
                segment,
            } => {
                assert_eq!(tenant, "acme*corp");
                assert_eq!(existing, "acme corp");
                assert_eq!(segment, "acme_corp");
            }
            other => panic!("expected TenantNameCollision, got {other:?}"),
        }
        let detail = err.to_json();
        assert_eq!(detail["code"], json!("tenant-name-collision"));
        assert_eq!(detail["segment"], json!("acme_corp"));
        // Re-greeting the admitted spelling is still idempotent, and a
        // clean name still fits under the tenant cap.
        assert!(!reg.hello("acme corp").unwrap());
        assert!(reg.hello("other").unwrap());
    }

    #[test]
    fn command_latency_is_recorded_only_for_admitted_tenants() {
        let reg = registry();
        reg.hello("a").unwrap();
        reg.record_command_latency("a", "event", 1_000);
        reg.record_command_latency("ghost", "event", 1_000);
        let snap = reg.metrics().snapshot();
        let map = snap.as_object().unwrap();
        assert!(map.contains_key("serve.tenant.a.cmd.event.latency"));
        assert!(!map.keys().any(|k| k.contains("ghost")));
    }

    #[test]
    fn draining_rejects_admission_but_reports_typed() {
        let reg = registry();
        reg.hello("a").unwrap();
        reg.load_spec("a", "s", spec_text(), None).unwrap();
        reg.open_session("a", "s", "x").unwrap();
        reg.start_draining();
        match reg.hello("late") {
            Err(AdmissionError::Draining) => {}
            other => panic!("expected Draining, got {other:?}"),
        }
        assert_eq!(reg.hello("late").unwrap_err().code(), "draining");
        // Traffic for the already-open session still flows during drain.
        let ev = json!({"session": "x", "state": "p", "regs": [7u64]});
        assert_eq!(reg.ingest("a", "s", &[ev]).unwrap(), 1);
        let report = reg.drain_all();
        let tenants = report["tenants"].as_array().unwrap();
        assert_eq!(tenants.len(), 1);
        let outcomes = tenants[0]["specs"][0]["outcomes"].as_array().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0]["session"], json!("x"));
    }

    #[test]
    fn handoff_drains_and_answers_rebalancing_until_reclaimed() {
        let reg = registry();
        reg.hello("a").unwrap();
        reg.load_spec("a", "s", spec_text(), None).unwrap();
        reg.open_session("a", "s", "x").unwrap();
        let ev = json!({"session": "x", "state": "p", "regs": [1u64]});
        reg.ingest("a", "s", std::slice::from_ref(&ev)).unwrap();

        let report = reg.handoff("a", "s").unwrap();
        let outcomes = report["outcomes"].as_array().unwrap();
        assert_eq!(
            outcomes.len(),
            1,
            "the drained verdict travels with the handoff"
        );
        assert_eq!(outcomes[0]["session"], json!("x"));

        // The spec is gone but NOT unknown: traffic answers `rebalancing`
        // with a retry hint — a migration must read as degraded, never as
        // a client bug.
        match reg.ingest("a", "s", std::slice::from_ref(&ev)) {
            Err((0, IngestError::Admission(AdmissionError::Rebalancing { retry_after_ms }))) => {
                assert_eq!(retry_after_ms, HANDOFF_RETRY_MS);
            }
            other => panic!("expected Rebalancing, got {other:?}"),
        }
        assert_eq!(
            reg.open_session("a", "s", "y").unwrap_err().code(),
            "rebalancing"
        );
        let detail = AdmissionError::Rebalancing {
            retry_after_ms: HANDOFF_RETRY_MS,
        }
        .to_json();
        assert_eq!(detail["code"], json!("rebalancing"));
        assert_eq!(detail["retry_after_ms"], json!(HANDOFF_RETRY_MS));

        // Handing off again mid-migration is also `rebalancing`; a spec
        // never loaded is still plain `unknown-spec`.
        assert_eq!(reg.handoff("a", "s").unwrap_err().code(), "rebalancing");
        assert_eq!(reg.handoff("a", "nope").unwrap_err().code(), "unknown-spec");

        // A load-spec under the same name reclaims the slot and clears
        // the marker.
        reg.load_spec("a", "s", spec_text(), None).unwrap();
        reg.open_session("a", "s", "y").unwrap();
        let ev2 = json!({"session": "y", "state": "p", "regs": [2u64]});
        assert_eq!(reg.ingest("a", "s", &[ev2]).unwrap(), 1);
    }

    #[test]
    fn overload_sheds_typed_with_retry_hint_and_counts_it() {
        use rega_stream::FaultPlan;
        use std::time::Duration;
        // One shard, one worker, a queue of one, and every delivery
        // stalled far past the submit timeout: the second event cannot be
        // queued and must be shed, not block the connection.
        let reg = TenantRegistry::new(
            2,
            TenantQuotas::default(),
            BudgetSpec::none(),
            EngineConfig {
                shards: 1,
                workers: 1,
                queue_capacity: 1,
                submit_timeout: Some(Duration::from_millis(10)),
                fault: FaultPlan {
                    stall_prob: 1.0,
                    stall_ns: 60_000_000_000,
                    ..FaultPlan::none()
                },
                ..EngineConfig::default()
            },
            Arc::new(Registry::new()),
        );
        reg.hello("a").unwrap();
        reg.load_spec("a", "s", spec_text(), None).unwrap();
        reg.open_session("a", "s", "x").unwrap();
        let ev = json!({"session": "x", "state": "p", "regs": [1u64]});
        let mut shed = None;
        for _ in 0..8 {
            match reg.ingest("a", "s", std::slice::from_ref(&ev)) {
                Ok(_) => continue,
                Err((_, e)) => {
                    shed = Some(e);
                    break;
                }
            }
        }
        let e = shed.expect("a 1-slot queue behind a stalled worker must shed");
        match &e {
            IngestError::Overloaded { retry_after_ms, .. } => {
                assert_eq!(*retry_after_ms, OVERLOAD_RETRY_MS)
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let detail = e.to_json();
        assert_eq!(detail["code"], json!("overloaded"));
        assert_eq!(detail["retry_after_ms"], json!(OVERLOAD_RETRY_MS));
        let snap = reg.metrics().snapshot();
        assert_eq!(
            snap["serve.tenant.a.events.shed"].as_u64(),
            Some(1),
            "the shed is visible on its own per-tenant series"
        );
    }

    #[test]
    fn shed_terminal_event_keeps_its_session_open_for_the_retry() {
        use rega_stream::FaultPlan;
        use std::time::{Duration, Instant};
        // As above, but each delivery stalls for a bounded time, so the
        // queue frees up again and the retried `end` gets in.
        let reg = TenantRegistry::new(
            2,
            TenantQuotas::default(),
            BudgetSpec::none(),
            EngineConfig {
                shards: 1,
                workers: 1,
                queue_capacity: 1,
                submit_timeout: Some(Duration::from_millis(10)),
                fault: FaultPlan {
                    stall_prob: 1.0,
                    stall_ns: 2_000_000_000,
                    ..FaultPlan::none()
                },
                ..EngineConfig::default()
            },
            Arc::new(Registry::new()),
        );
        reg.hello("a").unwrap();
        reg.load_spec("a", "s", spec_text(), None).unwrap();
        reg.open_session("a", "s", "x").unwrap();
        let open = |reg: &TenantRegistry| {
            reg.metrics().snapshot()["serve.tenant.a.sessions.open"]["value"].as_f64()
        };
        // Fill the queue behind the stalled worker until a step is shed.
        let step = json!({"session": "x", "state": "p", "regs": [1u64]});
        let full = (0..8).any(|_| reg.ingest("a", "s", std::slice::from_ref(&step)).is_err());
        assert!(full, "a 1-slot queue behind a stalled worker must shed");
        assert_eq!(open(&reg), Some(1.0));

        let end = json!({"session": "x", "end": true});
        match reg.ingest("a", "s", std::slice::from_ref(&end)) {
            Err((0, IngestError::Overloaded { .. })) => {}
            other => panic!("expected the terminal event shed, got {other:?}"),
        }
        // The shed `end` released nothing: the session is still open and
        // still counted.
        assert_eq!(open(&reg), Some(1.0));
        let snapshot = reg.snapshot("a").unwrap();
        assert_eq!(snapshot["specs"][0]["open_sessions"], json!(["x"]));

        // Retried once the worker frees the slot, the same `end` is
        // accepted and releases the session.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match reg.ingest("a", "s", std::slice::from_ref(&end)) {
                Ok(1) => break,
                Err((0, IngestError::Overloaded { .. })) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                other => panic!("the retried end must be accepted, got {other:?}"),
            }
        }
        assert_eq!(open(&reg), Some(0.0));
        match reg.ingest("a", "s", std::slice::from_ref(&step)) {
            Err((0, IngestError::Admission(AdmissionError::UnknownSession { .. }))) => {}
            other => panic!("the ended session must be closed, got {other:?}"),
        }
    }

    #[test]
    fn budget_tightening_rejects_expensive_compiles() {
        let reg = TenantRegistry::new(
            4,
            TenantQuotas {
                budget: BudgetSpec {
                    max_nodes: Some(1),
                    ..BudgetSpec::none()
                },
                ..TenantQuotas::default()
            },
            BudgetSpec::none(),
            EngineConfig::default(),
            Arc::new(Registry::new()),
        );
        reg.hello("tight").unwrap();
        // With a view requested, compilation runs the (governed)
        // projection construction, which trips a 1-node ceiling.
        let err = reg
            .load_spec("tight", "s", spec_text(), Some(1))
            .unwrap_err();
        assert_eq!(err.code(), "resource-budget", "got {err:?}");
        // Without the tenant quota the same compile succeeds.
        let loose = registry();
        loose.hello("a").unwrap();
        loose.load_spec("a", "s", spec_text(), Some(1)).unwrap();
    }
}
