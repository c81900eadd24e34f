//! A load-generator connection speaking the Corona client protocol
//! over a bare `TcpStream`: one socket, driven by one generator
//! thread, no background threads of its own.
//!
//! `corona_core::RawMember` is the closest existing client, but it
//! cannot attach trace tokens, choose a state-transfer policy, create
//! a group with initial state, send `SetState` or leave, all of which
//! the workloads need.

use corona_types::frame::{read_frame, write_frame};
use corona_types::id::{ClientId, GroupId};
use corona_types::message::{ClientRequest, ServerEvent, StateTransfer, PROTOCOL_VERSION};
use corona_types::policy::{MemberInfo, MemberRole, Persistence, StateTransferPolicy};
use corona_types::state::SharedState;
use corona_types::wire::{decode_traced, encode_traced, TraceToken};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long any single wait for the server may take before the
/// operation counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One client connection.
pub struct Member {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The server-assigned client id.
    pub client: ClientId,
}

impl Member {
    /// Dials `addr` and completes the `Hello`/`Welcome` handshake.
    pub fn connect(addr: &str, name: &str) -> Result<Member, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        let mut member = Member {
            reader: BufReader::with_capacity(64 * 1024, reader),
            writer: BufWriter::new(stream),
            client: ClientId::new(0),
        };
        member.send(
            &ClientRequest::Hello {
                version: PROTOCOL_VERSION,
                display_name: name.to_string(),
                resume: None,
            },
            None,
        )?;
        match member.recv()?.0 {
            ServerEvent::Welcome { client, .. } => {
                member.client = client;
                Ok(member)
            }
            other => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    /// Sends one request, with a trace token when given.
    pub fn send(
        &mut self,
        request: &ClientRequest,
        token: Option<TraceToken>,
    ) -> Result<(), String> {
        write_frame(&mut self.writer, &encode_traced(request, token))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Blocks (up to [`REPLY_TIMEOUT`]) for the next event.
    pub fn recv(&mut self) -> Result<(ServerEvent, Option<TraceToken>), String> {
        let frame = read_frame(&mut self.reader)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    format!("recv: nothing from the server for {REPLY_TIMEOUT:?}")
                }
                _ => format!("recv: {e}"),
            })?
            .ok_or_else(|| "recv: server closed the connection".to_string())?;
        decode_traced::<ServerEvent>(&frame).map_err(|e| format!("decode: {e}"))
    }

    /// Sends `request` and waits for the event `want` accepts, skipping
    /// unrelated events (rosters, membership notices). An `Error`
    /// reply fails the call.
    pub fn call(
        &mut self,
        request: &ClientRequest,
        want: fn(&ServerEvent) -> bool,
    ) -> Result<ServerEvent, String> {
        self.send(request, None)?;
        loop {
            let (event, _) = self.recv()?;
            if want(&event) {
                return Ok(event);
            }
            if let ServerEvent::Error { code, detail } = event {
                return Err(format!("server error {code}: {detail}"));
            }
            if matches!(event, ServerEvent::Multicast { .. }) {
                return Err("unexpected multicast while waiting for a reply".into());
            }
        }
    }

    /// Creates `group` with `initial` objects.
    pub fn create_group(
        &mut self,
        group: GroupId,
        persistence: Persistence,
        initial: SharedState,
    ) -> Result<(), String> {
        self.call(
            &ClientRequest::CreateGroup {
                group,
                persistence,
                initial_state: initial,
            },
            |e| matches!(e, ServerEvent::GroupCreated { .. }),
        )
        .map(|_| ())
    }

    /// Joins `group` under `policy` and returns the reply.
    pub fn join(
        &mut self,
        group: GroupId,
        policy: StateTransferPolicy,
    ) -> Result<(Vec<MemberInfo>, StateTransfer), String> {
        match self.call(&join_request(group, policy), |e| {
            matches!(e, ServerEvent::Joined { .. })
        })? {
            ServerEvent::Joined { members, transfer } => Ok((members, transfer)),
            _ => unreachable!("matcher guarantees Joined"),
        }
    }

    /// Leaves `group`.
    pub fn leave(&mut self, group: GroupId) -> Result<(), String> {
        self.call(&ClientRequest::Leave { group }, |e| {
            matches!(e, ServerEvent::Left { .. })
        })
        .map(|_| ())
    }
}

/// A principal's `Join` without membership notifications.
pub fn join_request(group: GroupId, policy: StateTransferPolicy) -> ClientRequest {
    ClientRequest::Join {
        group,
        role: MemberRole::Principal,
        policy,
        notify_membership: false,
    }
}
