//! Fixture for the `socket-stall` rule: a client that dials without
//! `TCP_NODELAY`, an accept loop that hands its streams on untuned, and a
//! frame writer that sends header and payload as two writes — each one a
//! delayed-ACK wait per request.

use std::io::Write;
use std::net::{TcpListener, TcpStream};

fn dial(addr: &str) -> std::io::Result<TcpStream> {
    TcpStream::connect(addr)
}

fn accept_one(listener: &TcpListener) -> Option<TcpStream> {
    listener.accept().ok().map(|(stream, _)| stream)
}

fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let header = (payload.len() as u32).to_le_bytes();
    w.write_all(&header)?;
    w.write_all(payload)
}
