//! # scrutinyd — the multi-tenant checkpoint service
//!
//! The paper's storage reduction pays off at scale when *many*
//! applications share one storage pool; this crate turns the
//! single-process engine stack into that service. One daemon hosts one
//! [`StorageBackend`](scrutiny_engine::StorageBackend) pool behind a
//! length-prefixed binary protocol on TCP or Unix sockets (std-only),
//! and every connected application — a *tenant* — sees a private
//! namespace of it (`<tenant>/ckpt_v...`; see `scrutiny_ckpt::names`).
//!
//! * [`proto`] — the wire protocol: framing, opcodes, typed
//!   reject/backpressure responses. `docs/PROTOCOL.md` is the normative
//!   spec.
//! * [`server`] / [`Daemon`] — thread-per-connection daemon with
//!   per-tenant admission gates (the engine's double-buffered
//!   [`StagingGate`](scrutiny_engine::StagingGate)), inflight-byte /
//!   version / object-size quotas, per-tenant obs spans and gauges in
//!   one `Recorder`, and graceful drain-and-shutdown via a control
//!   frame.
//! * [`client`] / [`RemoteBackend`] — a
//!   [`StorageBackend`](scrutiny_engine::StorageBackend) speaking the
//!   protocol, so existing engines, recovery managers, and burn-in
//!   pipelines publish and recover over the wire unchanged.
//!
//! A complete round trip — daemon up, engine submits over the socket,
//! recovery reads back:
//!
//! ```
//! use scrutinyd::{Daemon, DaemonConfig, Endpoint, RemoteBackend};
//! use scrutiny_engine::{EngineConfig, EngineHandle, RecoveryConfig, RecoveryManager};
//! use scrutiny_ckpt::{names::Tenant, VarData, VarPlan, VarRecord};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(scrutiny_engine::MemBackend::new());
//! let daemon = Daemon::spawn_tcp("127.0.0.1:0", pool, DaemonConfig::default()).unwrap();
//!
//! let tenant = Tenant::new("app_a").unwrap();
//! let remote = RemoteBackend::connect(daemon.endpoint(), Some(tenant)).unwrap();
//! let engine = EngineHandle::open(Arc::new(remote), EngineConfig::default()).unwrap();
//! let vars = vec![VarRecord::new("u", VarData::F64(vec![1.0; 512]))];
//! let t = engine.submit(&vars, &[VarPlan::Full]).unwrap();
//! engine.wait(t).unwrap();
//!
//! let recovered = RecoveryManager::new(engine.backend(), RecoveryConfig::default())
//!     .recover_latest()
//!     .unwrap();
//! assert_eq!(recovered.version, 0);
//! drop(engine);
//! daemon.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
mod sock;

pub use client::RemoteBackend;
pub use proto::{Frame, RejectReason, Request, Response, TenantStats, MAX_FRAME, PROTO_VERSION};
pub use server::{Daemon, DaemonConfig, DEFAULT_TENANT_OBS};
pub use sock::Endpoint;
