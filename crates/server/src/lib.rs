//! Multi-tenant network service layer over G-SACS.
//!
//! A zero-external-dependency HTTP/1.1 server built for overload
//! robustness rather than protocol breadth:
//!
//! * [`http`] — a defensive request/response codec with bounded buffers.
//! * [`quota`] — per-tenant token-bucket admission with jittered
//!   backpressure hints.
//! * [`server`] — the bounded worker pool: connection limits, socket
//!   timeouts, deadline propagation into the engine, graceful drain.
//! * [`transport`] — the [`Conn`] abstraction under the codec and
//!   worker pool: real `TcpStream`s in production, in-memory
//!   [`SimConn`]s (partitions, stalls, torn writes) under deterministic
//!   simulation.
//! * [`chaos`] — the seeded socket-fault client that *proves* the above:
//!   every injected fault must end in a clean teardown or a well-formed
//!   error response.
//!
//! ## Wire protocol (DESIGN.md §11)
//!
//! | Endpoint        | Method | Meaning                                   |
//! |-----------------|--------|-------------------------------------------|
//! | `/query`        | POST   | SPARQL-subset query body → result JSON    |
//! | `/update`       | POST   | `+`/`-` prefixed N-Triples lines          |
//! | `/lint`         | POST   | lint the served graph → report JSON       |
//! | `/trace`        | POST   | run query, return result + span tree      |
//! | `/health`       | GET    | `HealthReport` JSON (quota-exempt)        |
//! | `/metrics`      | GET    | metrics snapshot JSON (quota-exempt)      |
//!
//! Request headers: `X-Role` (required for query/update/trace/lint),
//! `X-Tenant` (quota bucket, default `public`), `Deadline-Ms` (request
//! budget, clamped to the server maximum), `X-Trace-Id` (16-hex trace id
//! to adopt). Every response echoes `X-Trace-Id`.

pub mod chaos;
pub mod http;
pub mod quota;
pub mod server;
pub mod transport;

pub use chaos::{build_request, run_case, well_formed_response, ChaosFault, ChaosOutcome};
pub use http::{Request, Response};
pub use quota::{QuotaConfig, TenantQuotas};
pub use server::{GrdfServer, ServerConfig, ServerCore};
pub use transport::{sim_conn, Conn, SimConn, SimLink};
