//! Typed client for the rule server.
//!
//! [`Client`] is a synchronous, single-threaded handle over one TCP
//! connection. Two usage styles:
//!
//! * **Call-and-wait** — the typed methods ([`Client::insert`],
//!   [`Client::add_rule`], …) send one request and block for its
//!   reply.
//! * **Pipelined** — [`Client::send`] queues requests without waiting
//!   (the server permits a client to have many requests in flight; see
//!   `ServerOptions::pipeline_cap`), then [`Client::recv_reply`] reads
//!   replies back *in request order*. This is how the soak harness
//!   drives throughput: N in flight amortises the round trip.
//!
//! Pushed frames ([`Event`] from subscriptions, `Lagged` notices) can
//! interleave with replies at any point; the reply readers divert them
//! into an internal queue, which [`Client::wait_event`] drains before
//! it blocks for the next one, and [`Client::lagged`] totals the
//! events the server dropped.

use crate::proto::{read_frame, Event, FireSummary, ProtoError, Reply, Request};
use durable::{Record, RuleSpec};
use relation::{Schema, TupleId, Value};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(io::Error),
    /// The server sent bytes that do not parse.
    Corrupt(String),
    /// The server replied `Err` — the operation was rejected.
    Server(String),
    /// The server replied `Busy` — the engine queue was full; the
    /// operation was not applied and can be retried.
    Busy,
    /// Clean close while a reply was still owed.
    Closed,
    /// Protocol confusion: a reply of the wrong shape for the request.
    Unexpected { wanted: &'static str, got: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o: {e}"),
            ClientError::Corrupt(m) => write!(f, "corrupt reply: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Busy => write!(f, "server busy (engine queue full)"),
            ClientError::Closed => write!(f, "connection closed with replies outstanding"),
            ClientError::Unexpected { wanted, got } => {
                write!(f, "expected a {wanted} reply, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            ProtoError::Corrupt(m) => ClientError::Corrupt(m),
        }
    }
}

/// A frame the server pushed, as [`Client::wait_event`] hands it over.
#[derive(Debug, Clone, PartialEq)]
pub enum Pushed {
    /// A rule firing on a subscribed connection.
    Event(Event),
    /// The server dropped this many events since the last one that fit
    /// (also added to [`Client::lagged`]).
    Lagged(u64),
}

/// One connection to a rule server.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    pushed: VecDeque<Pushed>,
    lagged: u64,
}

impl Client {
    /// Connects (with `TCP_NODELAY`, no read timeout).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            writer: BufWriter::with_capacity(64 * 1024, stream),
            reader: BufReader::with_capacity(64 * 1024, read_half),
            pushed: VecDeque::new(),
            lagged: 0,
        })
    }

    /// Queues one request without waiting for its reply (pipelining).
    /// Buffered; [`recv_reply`](Self::recv_reply) flushes before
    /// reading, or call [`flush`](Self::flush) explicitly.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        request.write_to_traced(&mut self.writer, None)?;
        Ok(())
    }

    /// Pushes buffered requests onto the wire.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next *reply* (in request order), diverting pushed
    /// event/lag frames into the event queue.
    pub fn recv_reply(&mut self) -> Result<Reply, ClientError> {
        self.flush()?;
        loop {
            match self.next_frame()? {
                Ok(pushed) => self.pushed.push_back(pushed),
                Err(reply) => return Ok(reply),
            }
        }
    }

    /// Total events the server reported dropping because this
    /// connection's reply queue was full. Kept public: it is the only
    /// way a subscriber learns that it missed events.
    pub fn lagged(&self) -> u64 {
        self.lagged
    }

    /// The next frame: a pushed one as [`Pushed`] (a `Lagged` count is
    /// added to [`lagged`](Self::lagged)), any other reply as it is.
    fn next_frame(&mut self) -> Result<Result<Pushed, Reply>, ClientError> {
        let Some((opcode, payload)) = read_frame(&mut self.reader)? else {
            return Err(ClientError::Closed);
        };
        Ok(match Reply::decode(opcode, &payload)? {
            Reply::Event(e) => Ok(Pushed::Event(e)),
            Reply::Lagged(n) => {
                self.lagged += n;
                Ok(Pushed::Lagged(n))
            }
            reply => Err(reply),
        })
    }

    /// Blocks up to `timeout` for the next pushed frame while the
    /// connection is idle (no replies outstanding). Returns `None` only
    /// when nothing arrived before the timeout.
    pub fn wait_event(&mut self, timeout: Duration) -> Result<Option<Pushed>, ClientError> {
        if let Some(pushed) = self.pushed.pop_front() {
            return Ok(Some(pushed));
        }
        self.flush()?;
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let result = match self.next_frame() {
            Ok(Ok(pushed)) => Ok(Some(pushed)),
            Ok(Err(reply)) => Err(ClientError::Unexpected {
                wanted: "event",
                got: reply.kind().to_string(),
            }),
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        };
        self.reader.get_ref().set_read_timeout(None)?;
        result
    }

    /// Sends one request and reads its reply.
    pub fn call(&mut self, request: &Request) -> Result<Reply, ClientError> {
        self.send(request)?;
        self.recv_reply()
    }

    /// Liveness probe (answered by the session thread even when the
    /// engine is saturated).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected("pong", other)),
        }
    }

    /// Creates a relation.
    pub fn create_relation(&mut self, schema: Schema) -> Result<(), ClientError> {
        self.unit_call(&Request::Apply(Record::CreateRelation { schema }))
    }

    /// Drops a relation (and every rule condition on it).
    pub fn drop_relation(&mut self, name: &str) -> Result<(), ClientError> {
        self.unit_call(&Request::Apply(Record::DropRelation {
            name: name.to_string(),
        }))
    }

    /// Adds a rule, returning its server-assigned id.
    pub fn add_rule(&mut self, spec: RuleSpec) -> Result<u32, ClientError> {
        match self.call(&Request::Apply(Record::AddRule { spec }))? {
            Reply::RuleId(id) => Ok(id),
            other => Err(unexpected("rule_id", other)),
        }
    }

    /// Removes a rule.
    pub fn remove_rule(&mut self, id: u32) -> Result<(), ClientError> {
        self.unit_call(&Request::Apply(Record::RemoveRule { id }))
    }

    /// Inserts a tuple; returns its WAL sequence and rule firings.
    pub fn insert(
        &mut self,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<FireSummary, ClientError> {
        self.fire_call(&Request::Apply(Record::Insert {
            relation: relation.to_string(),
            values,
        }))
    }

    /// Updates a tuple in place.
    pub fn update(
        &mut self,
        relation: &str,
        id: TupleId,
        values: Vec<Value>,
    ) -> Result<FireSummary, ClientError> {
        self.fire_call(&Request::Apply(Record::Update {
            relation: relation.to_string(),
            id: id.0,
            values,
        }))
    }

    /// Deletes a tuple.
    pub fn delete(&mut self, relation: &str, id: TupleId) -> Result<FireSummary, ClientError> {
        self.fire_call(&Request::Apply(Record::Delete {
            relation: relation.to_string(),
            id: id.0,
        }))
    }

    /// Inserts a batch, running the rule chain once over it.
    pub fn insert_batch(
        &mut self,
        relation: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<FireSummary, ClientError> {
        self.fire_call(&Request::Apply(Record::InsertBatch {
            relation: relation.to_string(),
            rows,
        }))
    }

    /// Starts streaming rule firings to this connection.
    pub fn subscribe(&mut self) -> Result<(), ClientError> {
        self.unit_call(&Request::Subscribe)
    }

    /// Stops the stream (already-pushed events still arrive).
    pub fn unsubscribe(&mut self) -> Result<(), ClientError> {
        self.unit_call(&Request::Unsubscribe)
    }

    /// The engine's health text (`up 1\nwal_next_seq …`).
    pub fn health(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Health)? {
            Reply::Health(text) => Ok(text),
            other => Err(unexpected("health", other)),
        }
    }

    /// Forces a WAL fsync (group-commit flush point).
    pub fn sync(&mut self) -> Result<(), ClientError> {
        self.unit_call(&Request::Sync)
    }

    fn unit_call(&mut self, request: &Request) -> Result<(), ClientError> {
        match self.call(request)? {
            Reply::Unit => Ok(()),
            other => Err(unexpected("unit", other)),
        }
    }

    fn fire_call(&mut self, request: &Request) -> Result<FireSummary, ClientError> {
        match self.call(request)? {
            Reply::Fire(summary) => Ok(summary),
            other => Err(unexpected("fire", other)),
        }
    }
}

/// Maps non-matching replies to the right error: `Err`/`Busy` are
/// domain outcomes, anything else is protocol confusion.
fn unexpected(wanted: &'static str, got: Reply) -> ClientError {
    match got {
        Reply::Err(msg) => ClientError::Server(msg),
        Reply::Busy => ClientError::Busy,
        other => ClientError::Unexpected {
            wanted,
            got: other.kind().to_string(),
        },
    }
}
