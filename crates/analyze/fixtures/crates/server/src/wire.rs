//! Fixture for the `wire-tags` rule: a declaration with a duplicate
//! value in one family, a tag declared twice, a codec matching on a raw
//! integer, and an `impl Wire` body pushing one.

wire_enum! {
    pub enum Request {
        Ping = REQ_PING: 0,
        Match { tenant: String } = REQ_MATCH: 0, // duplicate of REQ_PING's value
    }
}

wire_enum! {
    pub enum Reply {
        Ping = REQ_PING: 2, // REQ_PING declared a second time
    }
}

pub fn decode(data: &[u8]) -> &'static str {
    match data[0] {
        Request::REQ_PING => "ping",
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
