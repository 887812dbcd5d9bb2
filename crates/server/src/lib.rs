//! Network service tier for the L-Store engine.
//!
//! Three pieces, one request/response vocabulary (`lstore::ReadRequest` /
//! `lstore::ReadResponse`, shared with embedded callers):
//!
//! * [`protocol`] — the length-prefixed binary wire format
//!   (`docs/PROTOCOL.md`): versioned frame header, client-chosen request
//!   ids for pipelining, engine errors as stable numeric codes.
//! * [`server`] — the TCP service: acceptor, per-connection
//!   reader/writer threads, a bounded in-flight budget that sheds load
//!   with `Error::Overloaded`, per-request queue deadlines, and one
//!   dispatcher that runs whatever is queued the moment it is free, so
//!   point reads that arrive across all connections while a batch
//!   executes merge into the next engine batch.
//! * [`client`] — a synchronous client: blocking one-shot calls plus a
//!   pipelined send/recv split.
//!
//! ```no_run
//! use lstore::{Database, DbConfig, ReadRequest, TableConfig};
//! use lstore_server::{Client, Server, ServerConfig};
//!
//! let db = Database::new(DbConfig::new());
//! let table = db.create_table("kv", &["value"], TableConfig::default()).unwrap();
//! table.insert_auto(1, &[42]).unwrap();
//!
//! let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let response = client.read("kv", &ReadRequest::latest(1)).unwrap().unwrap();
//! assert_eq!(response.values, Some(vec![42]));
//! ```

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, Reply};
pub use server::{Server, ServerConfig, ServerStats};
