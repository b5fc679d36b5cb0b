//! The host interface (paper §4.3.2 "System Interfaces").
//!
//! Conventional I/O reads and writes carry a 1-bit region flag; set, it
//! routes the request through the CIPHERMATCH region's vertical layout
//! (activating the transposition unit). `CM-search` carries the encrypted
//! query and triggers the `bop_add` µ-program.

use crate::ssd::{IfpReport, Ssd};

/// A host command as submitted over NVMe (§4.3.2 item 4).
#[derive(Debug, Clone)]
pub enum HostCommand {
    /// Conventional page read (`cm_flag = false`) or `CM-read` of a
    /// vertical group (`cm_flag = true`).
    Read {
        /// Logical page (conventional) or group index (CM region).
        address: u64,
        /// The 1-bit region flag.
        cm_flag: bool,
    },
    /// Conventional page write or `CM-write` of coefficient data.
    Write {
        /// Logical page (conventional only; CM writes append).
        address: u64,
        /// The 1-bit region flag.
        cm_flag: bool,
        /// Raw bytes (conventional) — ignored for CM writes.
        bytes: Vec<u8>,
        /// Coefficient words (CM region) — ignored for conventional.
        words: Vec<u32>,
    },
    /// `CM-search` with the encrypted query coefficient stream.
    CmSearch {
        /// One period of the encrypted query stream.
        query_words: Vec<u32>,
    },
}

/// A host command's completion.
#[derive(Debug, Clone)]
pub enum HostResponse {
    /// Conventional read data.
    Bytes(Vec<u8>),
    /// CM-read data (horizontal layout after reverse transposition).
    Words(Vec<u32>),
    /// Write acknowledged.
    Ack,
    /// CM-search result: coefficient sums plus the cost report.
    SearchResult {
        /// The Hom-Add output stream.
        sums: Vec<u32>,
        /// Flash-operation cost report.
        report: IfpReport,
    },
}

/// Dispatches a host command to the device.
pub fn submit(ssd: &mut Ssd, cmd: HostCommand) -> HostResponse {
    match cmd {
        HostCommand::Read {
            address,
            cm_flag: false,
        } => HostResponse::Bytes(ssd.read_page(address)),
        HostCommand::Read {
            address,
            cm_flag: true,
        } => HostResponse::Words(ssd.cm_read_group(address as usize)),
        HostCommand::Write {
            address,
            cm_flag: false,
            bytes,
            ..
        } => {
            ssd.write_page(address, &bytes);
            HostResponse::Ack
        }
        HostCommand::Write {
            cm_flag: true,
            words,
            ..
        } => {
            ssd.cm_write_words(&words);
            HostResponse::Ack
        }
        HostCommand::CmSearch { query_words } => {
            let mut sums = Vec::with_capacity(ssd.stored_words());
            let report = ssd.cm_search(&query_words, |group| sums.extend_from_slice(group));
            HostResponse::SearchResult { sums, report }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transpose::TransposeMode;
    use cm_flash::FlashGeometry;

    fn ssd() -> Ssd {
        Ssd::new(FlashGeometry::tiny_test(), TransposeMode::Software)
    }

    #[test]
    fn flag_routes_to_the_right_region() {
        let mut s = ssd();
        // Conventional write + read.
        let data = vec![7u8; 16];
        submit(
            &mut s,
            HostCommand::Write {
                address: 5,
                cm_flag: false,
                bytes: data.clone(),
                words: vec![],
            },
        );
        match submit(
            &mut s,
            HostCommand::Read {
                address: 5,
                cm_flag: false,
            },
        ) {
            HostResponse::Bytes(b) => assert_eq!(&b[..16], &data[..]),
            other => panic!("unexpected response {other:?}"),
        }
        // CM write + read through the flag.
        let words: Vec<u32> = (0..512u32).collect();
        submit(
            &mut s,
            HostCommand::Write {
                address: 0,
                cm_flag: true,
                bytes: vec![],
                words: words.clone(),
            },
        );
        match submit(
            &mut s,
            HostCommand::Read {
                address: 0,
                cm_flag: true,
            },
        ) {
            HostResponse::Words(w) => assert_eq!(w, words),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn cm_search_through_the_interface() {
        let mut s = ssd();
        let words: Vec<u32> = (0..512u32).map(|i| i * 11).collect();
        submit(
            &mut s,
            HostCommand::Write {
                address: 0,
                cm_flag: true,
                bytes: vec![],
                words: words.clone(),
            },
        );
        match submit(
            &mut s,
            HostCommand::CmSearch {
                query_words: vec![100],
            },
        ) {
            HostResponse::SearchResult { sums, report } => {
                assert_eq!(sums.len(), words.len());
                assert!(sums
                    .iter()
                    .zip(&words)
                    .all(|(&s, &w)| s == w.wrapping_add(100)));
                assert_eq!(report.ledger.wear(), 0);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn page_fault_latency_dominated_by_reads() {
        let mut s = ssd();
        let words: Vec<u32> = (0..512u32).map(|i| i ^ 0xAA).collect();
        s.cm_write_words(&words);
        let (got, latency) = s.handle_page_fault(0);
        assert_eq!(got, words);
        // 32 SLC reads at 22.5 us each.
        let reads = 32.0 * 22.5e-6;
        assert!((latency - reads).abs() / reads < 0.2, "latency {latency}");
    }

    #[test]
    fn dirty_writeback_roundtrip() {
        let mut s = ssd();
        let words: Vec<u32> = (0..512u32).collect();
        s.cm_write_words(&words);
        let modified: Vec<u32> = words.iter().map(|&w| w + 1).collect();
        let latency = s.handle_dirty_writeback(0, &modified);
        assert!(latency > 0.0);
        assert_eq!(s.cm_read_group(0), modified);
    }
}
