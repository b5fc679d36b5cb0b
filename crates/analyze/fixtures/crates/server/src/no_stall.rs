//! Clean twin of `stall.rs`: the same three jobs done the way the
//! `socket-stall` rule asks — `set_nodelay` where the stream is obtained,
//! one buffer and one write per frame. Nothing here may be flagged.

use std::io::Write;
use std::net::{TcpListener, TcpStream};

fn dial(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn accept_one(listener: &TcpListener) -> Option<TcpStream> {
    let (stream, _) = listener.accept().ok()?;
    let _ = stream.set_nodelay(true);
    Some(stream)
}

fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

fn tee<W: Write>(left: &mut W, right: &mut W, frame: &[u8]) -> std::io::Result<()> {
    left.write_all(frame)?;
    right.write_all(frame)
}
