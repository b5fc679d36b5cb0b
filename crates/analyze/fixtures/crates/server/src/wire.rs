//! Fixture for the `wire-tags` rule: a tag registry with a duplicate
//! value in one family, an unreferenced constant, a codec matching on a
//! raw integer, and an `impl Wire` body pushing one.

pub mod tags {
    pub const REQ_PING: u8 = 0;
    pub const REQ_MATCH: u8 = 0; // duplicate of REQ_PING in the REQ family
    pub const REQ_ORPHAN: u8 = 2; // referenced by no codec
}

pub fn encode(out: &mut Vec<u8>, ping: bool) {
    if ping {
        out.push(tags::REQ_PING);
    } else {
        out.push(tags::REQ_MATCH);
    }
}

pub fn decode(data: &[u8]) -> &'static str {
    match data[0] {
        tags::REQ_PING => "ping",
        tags::REQ_MATCH => "match",
        7 => "raw integer arm",
        _ => "unknown",
    }
}

pub struct Pong;

trait Wire {
    fn put(&self, out: &mut Vec<u8>);
}

impl Wire for Pong {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(9); // raw tag inside an `impl Wire` body
    }
}
