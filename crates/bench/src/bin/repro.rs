//! `repro` — regenerates every table and figure of the CIPHERMATCH
//! evaluation.
//!
//! Usage: `cargo run --release -p cm-bench --bin repro -- <target>` where
//! `<target>` is one of `table1 fig2a fig2b fig2c fig3 fig7 fig8 fig9
//! fig10 fig11 fig12 table2 table3 overheads ablation casestudies
//! sensitivity calibrate all`.
//!
//! Measured targets (fig2a–fig2c, calibrate) run this repository's real
//! implementations at laptop scale; simulated targets (fig3, fig7–fig12)
//! evaluate the analytical models of `cm-sim` at paper scale, under both
//! the paper-derived calibration and this repository's measured rates.

use cm_bench::{fmt_bytes, fmt_time, random_bits, time_per_iter, BfvFixture};
use cm_bfv::BfvParams;
use cm_core::{
    table1_profiles, Backend, BooleanGateCount, CiphermatchEngine, MatchStats, MatcherConfig,
    YasudaEngine,
};
use cm_sim::{
    area_overheads, fig10, fig11, fig12, fig3, fig7, fig8, fig9, storage_overheads,
    CalibrationProfile, HostProfile, SystemConstants,
};
use cm_tfhe::{ClientKey, ServerKey, TfheParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let target = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = target == "all";
    let mut ran = false;
    macro_rules! run {
        ($name:literal, $f:expr) => {
            if all || target == $name {
                println!("\n================ {} ================", $name);
                $f;
                ran = true;
            }
        };
    }

    run!("table1", table1());
    run!("fig2a", fig2a());
    run!("fig2b", fig2b());
    run!("fig2c", fig2c());
    run!("fig3", fig3_out());
    run!("fig7", fig7_out());
    run!("fig8", fig8_out());
    run!("fig9", fig9_out());
    run!("fig10", fig10_out());
    run!("fig11", fig11_out());
    run!("fig12", fig12_out());
    run!("table2", table2());
    run!("table3", table3());
    run!("overheads", overheads());
    run!("ablation", ablation());
    run!("casestudies", case_studies());
    run!("sensitivity", sensitivity());
    run!("calibrate", calibrate());

    if !ran {
        eprintln!(
            "unknown target {target:?}; expected one of: table1 fig2a fig2b fig2c fig3 \
             fig7 fig8 fig9 fig10 fig11 fig12 table2 table3 overheads ablation casestudies sensitivity \
             calibrate all"
        );
        std::process::exit(2);
    }
}

/// Table 1: qualitative comparison of prior approaches.
fn table1() {
    println!(
        "{:<28} {:<22} {:<10} {:<9} {:<6} {:<14}",
        "Work", "Family", "ExecTime", "Scalable", "SIMD", "FlexibleQuery"
    );
    for p in table1_profiles() {
        println!(
            "{:<28} {:<22} {:<10} {:<9} {:<6} {:<14}",
            p.work,
            p.family,
            p.execution_time.to_string(),
            if p.scalable { "yes" } else { "no" },
            if p.simd { "yes" } else { "no" },
            if p.flexible_query { "yes" } else { "no" },
        );
    }
}

/// Fig. 2a: measured memory footprint after encryption (tiny databases).
/// CM-SW is driven through the unified backend API and the arithmetic
/// baseline through its engine; the Boolean footprint is the analytic
/// one-LWE-per-bit count at full parameters.
fn fig2a() {
    let boolean_params = TfheParams::boolean_default();
    let mut rng = StdRng::seed_from_u64(2);
    // One key set per approach, reused for every database size.
    let ya_fix = BfvFixture::new(BfvParams::arithmetic_2048(), 2);
    let ya = YasudaEngine::new(&ya_fix.ctx);
    let ya_enc = ya_fix.encryptor();
    let mut cm = MatcherConfig::new(Backend::Ciphermatch)
        .seed(1)
        .build()
        .expect("valid config");
    println!(
        "{:<10} {:>14} {:>14} {:>14} (measured ciphertext bytes)",
        "DB size", "Boolean[17]", "Arith[27]", "CIPHERMATCH"
    );
    for plain_bytes in [8usize, 16, 32, 64, 128, 256] {
        let bits = random_bits(plain_bytes * 8, 42);
        // Boolean: one LWE ciphertext per bit.
        let boolean = bits.len() * boolean_params.lwe_ciphertext_bytes();
        let ydb = ya.encrypt_database(&ya_enc, &bits, 32, &mut rng);
        cm.load_database(&bits).expect("database encrypts");
        println!(
            "{:<10} {:>14} {:>14} {:>14}",
            fmt_bytes(plain_bytes as f64),
            fmt_bytes(boolean as f64),
            fmt_bytes(ydb.byte_size(ya_fix.ctx.params().coeff_bits()) as f64),
            fmt_bytes(cm.database_bytes().unwrap() as f64),
        );
    }
    println!("(paper Fig. 2a: Boolean >> arithmetic >> CIPHERMATCH; CM = 4x plain)");
}

/// Fig. 2b: measured execution time vs query size on a small database.
fn fig2b() {
    let mut rng = StdRng::seed_from_u64(21);
    // 64 bytes so the largest (256-bit) query still fits with slack.
    let db_bits = random_bits(64 * 8, 7);

    // Measure one real bootstrapped gate at full parameters.
    let t_gate = {
        let client = ClientKey::generate(TfheParams::boolean_default(), &mut rng);
        let server = ServerKey::generate(&client, &mut rng);
        let a = client.encrypt(true, &mut rng);
        let b = client.encrypt(false, &mut rng);
        time_per_iter(3, || {
            let _ = server.xnor(&a, &b);
        })
    };

    let cm_fix = BfvFixture::new(BfvParams::ciphermatch_1024(), 3);
    let mut cm = MatcherConfig::new(Backend::Ciphermatch)
        .seed(3)
        .build()
        .expect("valid config");
    cm.load_database(&db_bits).expect("database encrypts");
    let ya_fix = BfvFixture::new(BfvParams::arithmetic_2048(), 4);
    let ya = YasudaEngine::new(&ya_fix.ctx);
    let (ya_enc, ya_dec) = (ya_fix.encryptor(), ya_fix.decryptor());

    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>16}",
        "Query", "Boolean[17]*", "Arith[27]", "CM-SW e2e", "CM-SW server"
    );
    for k in [16usize, 32, 64, 128, 256] {
        let query = db_bits.slice(3, k);
        // Boolean: projected = measured gate cost x gate count (running
        // every bootstrap at this scale takes hours, exactly the paper's
        // point).
        let gates = BooleanGateCount::for_search(db_bits.len(), k).total();
        let t_boolean = gates as f64 * t_gate;
        // Arithmetic at engine level: the database is laid out afresh per
        // k (the window is fixed at database-layout time — Table 1's
        // inflexibility); a search encrypts its query too.
        let ydb = ya.encrypt_database(&ya_enc, &db_bits, k, &mut rng);
        let t_yasuda = time_per_iter(1, || {
            let _ = ya.find_all(&ya_enc, &ya_dec, &ydb, &query, &mut rng);
        });
        // CM-SW through the unified API: end-to-end (client-side query
        // encryption included).
        let t_cm = time_per_iter(1, || {
            let _ = cm.find_all(&query).expect("query searches");
        });
        // CM-SW server-side Hom-Add sweep alone (engine-level, below the
        // unified API on purpose: the API has no search-only entry).
        let ceng = CiphermatchEngine::new(&cm_fix.ctx);
        let cdb = ceng.encrypt_database(&cm_fix.encryptor(), &db_bits, &mut rng);
        let eq = ceng.prepare_query(&cm_fix.encryptor(), &query, &mut rng);
        let t_server = time_per_iter(5, || {
            let _ = ceng.search(&cdb, &eq);
        });
        println!(
            "{:<8} {:>14} {:>14} {:>14} {:>16}",
            format!("{k} b"),
            fmt_time(t_boolean),
            fmt_time(t_yasuda),
            fmt_time(t_cm),
            fmt_time(t_server),
        );
    }
    println!(
        "(* Boolean projected from a measured bootstrap: {}/gate)",
        fmt_time(t_gate)
    );
}

/// Fig. 2c: measured latency breakdown of the arithmetic approach,
/// read off the `MatchStats` its engine returns.
fn fig2c() {
    let mut rng = StdRng::seed_from_u64(5);
    let db_bits = random_bits(6000, 9);
    let query = db_bits.slice(100, 32);
    let ya_fix = BfvFixture::new(BfvParams::arithmetic_2048(), 5);
    let ya = YasudaEngine::new(&ya_fix.ctx);
    let ya_enc = ya_fix.encryptor();
    let ydb = ya.encrypt_database(&ya_enc, &db_bits, 32, &mut rng);
    let (_, stats) = ya.find_all(&ya_enc, &ya_fix.decryptor(), &ydb, &query, &mut rng);
    println!(
        "Hom-Mult: {:>6.1}%  ({} ops, {})",
        100.0 * stats.mult_fraction(),
        stats.hom_muls,
        fmt_time(stats.mul_time.as_secs_f64()),
    );
    println!(
        "Hom-Add : {:>6.1}%  ({} ops, {})",
        100.0 * (1.0 - stats.mult_fraction()),
        stats.hom_adds,
        fmt_time(stats.add_time.as_secs_f64()),
    );
    println!("(paper Fig. 2c: 98.2% multiplication / 1.8% addition)");
}

fn profiles() -> [(&'static str, CalibrationProfile); 2] {
    [
        ("paper-rates", CalibrationProfile::paper_rates()),
        ("this-repo", CalibrationProfile::default_measured()),
    ]
}

/// Fig. 3: normalized transfer latency.
fn fig3_out() {
    let c = SystemConstants::paper_default();
    println!(
        "{:<10} {:>8} {:>8} {:>8} (normalized to CPU = 100)",
        "DB", "CPU", "DRAM", "Storage"
    );
    for r in fig3(&c) {
        println!(
            "{:<10} {:>8.1} {:>8.1} {:>8.1}",
            format!("{} GB", r.db_gb),
            r.cpu,
            r.dram,
            r.storage
        );
    }
    println!("(paper Fig. 3: storage saves >80%, 94% at 256 GB; DRAM benefit shrinks)");
}

/// Fig. 7: software speedups over the Boolean baseline.
fn fig7_out() {
    let c = SystemConstants::paper_default();
    for (name, cal) in profiles() {
        println!("--- calibration: {name} ---");
        println!(
            "{:<8} {:>18} {:>18} {:>18}",
            "Query", "Arith/Boolean", "CM-SW/Boolean", "CM-SW/Arith"
        );
        for r in fig7(&c, &cal) {
            println!(
                "{:<8} {:>18.3e} {:>18.3e} {:>18.1}",
                format!("{} b", r.k),
                r.arithmetic_vs_boolean,
                r.cmsw_vs_boolean,
                r.cmsw_vs_arithmetic
            );
        }
    }
    println!("(paper Fig. 7: CM-SW 2.0e5-6.2e5x over Boolean, 20.7-62.2x over arithmetic)");
}

/// Fig. 8: software energy reductions.
fn fig8_out() {
    let c = SystemConstants::paper_default();
    for (name, cal) in profiles() {
        println!("--- calibration: {name} ---");
        println!(
            "{:<8} {:>18} {:>18} {:>18}",
            "Query", "Arith/Boolean", "CM-SW/Boolean", "CM-SW/Arith"
        );
        for r in fig8(&c, &cal) {
            println!(
                "{:<8} {:>18.3e} {:>18.3e} {:>18.1}",
                format!("{} b", r.k),
                r.arithmetic_vs_boolean,
                r.cmsw_vs_boolean,
                r.cmsw_vs_arithmetic
            );
        }
    }
    println!("(paper Fig. 8: CM-SW 17.6-60.1x over arithmetic, 1.6e5-6.0e5x over Boolean)");
}

/// Fig. 9: database-size sweep of the software approaches.
fn fig9_out() {
    let c = SystemConstants::paper_default();
    for (name, cal) in profiles() {
        println!("--- calibration: {name} ---");
        println!(
            "{:<8} {:>18} {:>18} {:>18}",
            "DB", "Arith/Boolean", "CM-SW/Boolean", "CM-SW/Arith"
        );
        for r in fig9(&c, &cal) {
            println!(
                "{:<8} {:>18.3e} {:>18.3e} {:>18.1}",
                format!("{} GB", r.db_gb),
                r.arithmetic_vs_boolean,
                r.cmsw_vs_boolean,
                r.cmsw_vs_arithmetic
            );
        }
    }
    println!("(paper Fig. 9: CM-SW 62.2-72.1x over arithmetic; dip past 32 GB)");
}

fn hw_table(rows: &[cm_sim::HwSweepRow], xlabel: &str) {
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        xlabel, "CM-PuM", "CM-PuM-SSD", "CM-IFP"
    );
    for r in rows {
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>12.1}",
            r.x, r.pum, r.pum_ssd, r.ifp
        );
    }
}

/// Fig. 10: hardware speedups over CM-SW vs query size.
fn fig10_out() {
    let c = SystemConstants::paper_default();
    for (name, cal) in profiles() {
        println!("--- calibration: {name} (speedup over CM-SW) ---");
        hw_table(&fig10(&c, &cal), "Query(b)");
    }
    println!("(paper Fig. 10: IFP 76.6-216x, PuM-SSD 81.7-105.8x, PuM 26.4-53.9x; PuM overtakes IFP at 256 b)");
}

/// Fig. 11: hardware energy reductions over CM-SW.
fn fig11_out() {
    let c = SystemConstants::paper_default();
    for (name, cal) in profiles() {
        println!("--- calibration: {name} (energy reduction over CM-SW) ---");
        hw_table(&fig11(&c, &cal), "Query(b)");
    }
    println!("(paper Fig. 11: IFP 156-454x, PuM-SSD 49-112x, PuM 48-98x)");
}

/// Fig. 12: hardware speedups over CM-SW vs database size.
fn fig12_out() {
    let c = SystemConstants::paper_default();
    for (name, cal) in profiles() {
        println!("--- calibration: {name} (speedup over CM-SW) ---");
        hw_table(&fig12(&c, &cal), "DB(GB)");
    }
    println!("(paper Fig. 12: IFP 250-295x; PuM wins <=32 GB, IFP wins 8.29x at 128 GB)");
}

/// Table 2: the real-system configuration this reproduction models.
fn table2() {
    let h = HostProfile::paper_table2();
    println!(
        "CPU      : {} ({} cores @ {} GHz)",
        h.cpu, h.cores, h.clock_ghz
    );
    println!("Caches   : {}", h.caches);
    println!("Memory   : {}", h.memory);
    println!("Storage  : {}", h.storage);
    println!("OS       : {}", h.os);
}

/// Table 3: simulated configuration and the Eq. 9-11 derivations.
fn table3() {
    let c = SystemConstants::paper_default();
    let g = &c.geometry;
    println!(
        "NAND     : {} ch x {} dies x {} planes; {} blocks/plane; {} WL/block; {} B pages",
        g.channels,
        g.dies_per_channel,
        g.planes_per_die,
        g.blocks_per_plane,
        g.wordlines_per_block,
        g.page_bytes
    );
    println!(
        "Bandwidth: PCIe {} GB/s | NAND {} GB/s total | DRAM {} GB/s",
        c.pcie_bw / 1e9,
        c.nand_bw() / 1e9,
        c.dram_bw / 1e9
    );
    println!(
        "Latency  : T_read {} | T_AND/OR {} | T_latch {} | T_XOR {} | T_DMA {}",
        fmt_time(c.flash_t.t_read_slc),
        fmt_time(c.flash_t.t_and_or),
        fmt_time(c.flash_t.t_latch_transfer),
        fmt_time(c.flash_t.t_xor),
        fmt_time(c.flash_t.t_dma)
    );
    println!(
        "Eq. 10   : T_bop_add = {} (paper: 22.74 us implied)",
        fmt_time(c.flash_t.t_bop_add())
    );
    println!(
        "Eq. 9    : T_bit_add = {} (paper: 29.38 us)",
        fmt_time(c.flash_t.t_bit_add())
    );
    let page_kb = g.page_bytes as f64 / 1024.0;
    println!(
        "Eq. 11   : E_bit_add = {:.2} uJ/channel (paper: 32.22 uJ; see EXPERIMENTS.md)",
        c.flash_e.e_bit_add(page_kb) * 1e6
    );
    println!("PuM      : T_bbop 49 ns, E_bbop 0.864 nJ; ext 4ch x 16 banks x 8 KiB rows; int 1ch x 8 x 4 KiB");
}

/// §6.3 / §7.1 / §7.2 overheads.
fn overheads() {
    let s = storage_overheads(&SystemConstants::paper_default().geometry);
    println!(
        "Storage : result buffer {} (paper: 0.5 MB); u-program <= {} B; SLC costs {}x capacity",
        fmt_bytes(s.result_buffer_bytes as f64),
        s.microprogram_bytes,
        s.slc_capacity_factor
    );
    let a = area_overheads();
    println!(
        "Area    : NAND periphery +{:.1}% | transposition HW {:.2} mm2 @ {} / 4 KiB | AES {:.2} mm2 @ {} / block",
        100.0 * a.nand_periphery_fraction,
        a.transposition_unit_mm2,
        fmt_time(a.transposition_latency),
        a.aes_mm2,
        fmt_time(a.aes_block_latency)
    );
    println!(
        "Software transposition: 13.6 us / 4 KiB (hides under the 22.5 us SLC read; \
         hardware needed for 3 us Z-NAND)"
    );
}

/// Ablations of the design choices DESIGN.md calls out.
fn ablation() {
    use cm_sim::PassModel;
    let mut rng = StdRng::seed_from_u64(55);

    // (a) Packing ablation: dense (CIPHERMATCH) vs single-bit (Yasuda)
    // footprint and per-query server time, same data and query.
    println!("--- packing ablation (measured, 2 KiB database, 32-bit query) ---");
    let bits = random_bits(16 * 1024, 13);
    let query = bits.slice(999, 32);
    let cm = BfvFixture::new(BfvParams::ciphermatch_1024(), 61);
    let ceng = CiphermatchEngine::new(&cm.ctx);
    let cdb = ceng.encrypt_database(&cm.encryptor(), &bits, &mut rng);
    let cq = ceng.prepare_query(&cm.encryptor(), &query, &mut rng);
    let t_dense = time_per_iter(50, || {
        let _ = ceng.search(&cdb, &cq);
    });
    let ya_fix = BfvFixture::new(BfvParams::arithmetic_2048(), 62);
    let ya = YasudaEngine::new(&ya_fix.ctx);
    let (ya_enc, ya_dec) = (ya_fix.encryptor(), ya_fix.decryptor());
    let ydb = ya.encrypt_database(&ya_enc, &bits, 32, &mut rng);
    let t_single = time_per_iter(3, || {
        let _ = ya.find_all(&ya_enc, &ya_dec, &ydb, &query, &mut rng);
    });
    println!(
        "dense packing    : footprint {} | search {}",
        fmt_bytes(cdb.byte_size(32) as f64),
        fmt_time(t_dense)
    );
    println!(
        "single-bit [27]  : footprint {} | search {}  ({:.1}x slower)",
        fmt_bytes(ydb.byte_size(ya_fix.ctx.params().coeff_bits()) as f64),
        fmt_time(t_single),
        t_single / t_dense
    );

    // (b) Pass-model ablation: the paper's literal 16-shift description vs
    // the complete bit-granular variant set (see EXPERIMENTS.md).
    println!("--- pass-model ablation (CM-SW passes per query) ---");
    println!("{:<8} {:>10} {:>12}", "Query", "Complete", "PaperShifts");
    for k in [16usize, 64, 256] {
        println!(
            "{:<8} {:>10} {:>12}",
            format!("{k} b"),
            PassModel::Complete.passes(k, 16),
            PassModel::PaperShifts.passes(k, 16)
        );
    }

    // (c) Transposition ablation (§7.1): software vs hardware unit against
    // the two flash read speeds.
    println!("--- transposition ablation (per 4 KiB) ---");
    for (name, lat) in [
        ("software (controller)", 13.6e-6),
        ("hardware (22 nm unit)", 158e-9),
    ] {
        let hides_slc = lat < 22.5e-6;
        let hides_znand = lat < 3e-6;
        println!(
            "{name:<22}: {:>9} | hides under SLC read: {hides_slc} | under Z-NAND: {hides_znand}",
            fmt_time(lat)
        );
    }

    // (d) IFP DMA-contention ablation: Eq. 9 vs per-channel DMA
    // serialization at the paper geometry.
    println!("--- CM-IFP channel-contention ablation ---");
    let c = SystemConstants::paper_default();
    let t = &c.flash_t;
    let dma_per_bit = c.geometry.planes_per_channel() as f64 * 2.0 * t.t_dma;
    println!(
        "Eq. 9 per-bit: {} | per-channel DMA demand: {} | contention factor {:.1}x",
        fmt_time(t.t_bit_add()),
        fmt_time(dma_per_bit),
        dma_per_bit / t.t_bit_add()
    );
    println!("(broadcasting the query page per channel and overlapping reads is required");
    println!(" to sustain Eq. 9; the sum read-out remains the per-plane bottleneck)");
}

/// Sensitivity of the Fig. 10/12 crossovers to the under-specified
/// simulator knobs (see EXPERIMENTS.md).
fn sensitivity() {
    use cm_sim::{sweep_cmsw_rate, sweep_pum_fraction};
    let c = SystemConstants::paper_default();
    let base = CalibrationProfile::paper_rates();
    println!("--- pum_active_fraction sweep (4 crossover claims) ---");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "fraction", "IFP@k=16", "PuM@k=256", "PuM@8GB", "IFP@128GB"
    );
    for o in sweep_pum_fraction(&c, &base) {
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}",
            o.knob,
            o.ifp_wins_small_queries,
            o.pum_wins_large_queries,
            o.pum_wins_small_db,
            o.ifp_wins_large_db
        );
    }
    println!("--- CM-SW Hom-Add rate sweep (orderings must be invariant) ---");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "t_add (s)", "IFP@k=16", "PuM@k=256", "PuM@8GB", "IFP@128GB"
    );
    for o in sweep_cmsw_rate(&c, &base) {
        println!(
            "{:<10.1e} {:>12} {:>12} {:>12} {:>12}",
            o.knob,
            o.ifp_wins_small_queries,
            o.pum_wins_large_queries,
            o.pum_wins_small_db,
            o.ifp_wins_large_db
        );
    }
    println!("(the DB-capacity crossover is physics; the query-size crossover is calibration)");
}

/// The two case studies of §5.3 at laptop scale, run for real through
/// the unified backend API.
fn case_studies() {
    use cm_workloads::{DnaGenome, KvDatabase};
    let mut rng = StdRng::seed_from_u64(77);

    // --- Case study 1: exact DNA string matching -------------------------
    println!("--- DNA read mapping (16 kb genome, query sweep per §5.3) ---");
    let genome = DnaGenome::random(8192, &mut rng);
    let genome_bits = cm_core::BitString::from_dna(&genome.to_string_seq());
    let mut matcher = MatcherConfig::new(Backend::Ciphermatch)
        .seed(71)
        .build()
        .expect("valid config");
    matcher
        .load_database(&genome_bits)
        .expect("genome encrypts");
    println!(
        "{:<10} {:>12} {:>10} {:>10}",
        "Read", "Search", "HomAdds", "Found"
    );
    for bases in [8usize, 16, 32, 64, 128] {
        let (read, pos) = genome.sample_read(bases, 0, &mut rng);
        let read_bits = cm_core::BitString::from_dna(&read);
        let t0 = std::time::Instant::now();
        let (matches, per_range) = matcher.find_all(&read_bits).expect("read searches");
        let dt = t0.elapsed().as_secs_f64();
        assert!(matches.contains(&(pos * 2)));
        println!(
            "{:<10} {:>12} {:>10} {:>10}",
            format!("{bases} bp"),
            fmt_time(dt),
            per_range.iter().sum::<MatchStats>().hom_adds,
            matches.len()
        );
    }

    // --- Case study 2: encrypted database search -------------------------
    println!("--- encrypted KV search (256 records, 100 point queries) ---");
    let kv = KvDatabase::random(256, 8, 8, &mut rng);
    let bits = cm_core::BitString::from_ascii(&kv.flatten());
    let mut matcher = MatcherConfig::new(Backend::Ciphermatch)
        .seed(72)
        .build()
        .expect("valid config");
    matcher.load_database(&bits).expect("database encrypts");
    let keys = kv.sample_queries(100, &mut rng);
    let t0 = std::time::Instant::now();
    let mut hom_adds = 0;
    let resolved = keys
        .iter()
        .filter(|key| {
            matcher
                .find_all(&cm_core::BitString::from_ascii(key))
                .is_ok_and(|(got, per_range)| {
                    hom_adds += per_range.iter().map(|s| s.hom_adds).sum::<u64>();
                    got.contains(&(kv.find_record(key).unwrap() * 8))
                })
        })
        .count();
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "resolved {resolved}/100 queries in {} ({} per query, {} Hom-Adds total)",
        fmt_time(dt),
        fmt_time(dt / 100.0),
        hom_adds
    );
    assert_eq!(resolved, 100);
}

/// Measures this repository's per-op costs (feeds CalibrationProfile).
fn calibrate() {
    let mut rng = StdRng::seed_from_u64(99);

    let cm = BfvFixture::new(BfvParams::ciphermatch_1024(), 7);
    let coder = cm_bfv::CoefficientEncoder::new(&cm.ctx);
    let ev = cm.evaluator();
    let a = cm.encryptor().encrypt(&coder.encode(&[1, 2, 3]), &mut rng);
    let b = cm.encryptor().encrypt(&coder.encode(&[4, 5, 6]), &mut rng);
    let t_add = time_per_iter(2000, || {
        let _ = ev.add(&a, &b);
    });
    println!("t_hom_add_1024  = {t_add:.3e} s ({})", fmt_time(t_add));

    let ya = BfvFixture::new(BfvParams::arithmetic_2048(), 8);
    let coder2 = cm_bfv::CoefficientEncoder::new(&ya.ctx);
    let ev2 = ya.evaluator();
    let c1 = ya.encryptor().encrypt(&coder2.encode(&[1, 0, 1]), &mut rng);
    let c2 = ya.encryptor().encrypt(&coder2.encode(&[0, 1, 1]), &mut rng);
    let t_mult = time_per_iter(5, || {
        let _ = ev2.multiply(&c1, &c2);
    });
    let t_add2 = time_per_iter(2000, || {
        let _ = ev2.add(&c1, &c2);
    });
    println!("t_hom_mult_2048 = {t_mult:.3e} s ({})", fmt_time(t_mult));
    println!("t_hom_add_2048  = {t_add2:.3e} s ({})", fmt_time(t_add2));

    let client = ClientKey::generate(TfheParams::boolean_default(), &mut rng);
    let server = ServerKey::generate(&client, &mut rng);
    let x = client.encrypt(true, &mut rng);
    let y = client.encrypt(false, &mut rng);
    let t_gate = time_per_iter(3, || {
        let _ = server.xnor(&x, &y);
    });
    println!("t_tfhe_gate     = {t_gate:.3e} s ({})", fmt_time(t_gate));

    // Plaintext reference: the paper's "5.9 us unencrypted" comparison.
    let db = random_bits(32 * 8, 3);
    let q = db.slice(10, 32);
    let t_plain = time_per_iter(200, || {
        let _ = cm_core::bitwise_find_all(&db, &q);
    });
    println!("t_plain_32B_db  = {t_plain:.3e} s ({})", fmt_time(t_plain));
}
