use cc_hunter::audit::{AuditSession, QuantumRunner};
use cc_hunter::channels::{
    BitClock, DividerChannelConfig, DividerSpy, DividerTrojan, Message, SpyLog,
};
use cc_hunter::detector::{BurstDetector, DensityHistogram};
use cc_hunter::sim::{Machine, MachineConfig};

fn main() {
    for (batch, tgap, sgap) in [
        (1u32, 4u64, 90u64),
        (1, 4, 128),
        (1, 4, 200),
        (2, 4, 200),
        (1, 12, 128),
        (1, 24, 128),
        (1, 4, 300),
        (1, 12, 300),
        (2, 24, 200),
        (1, 24, 64),
    ] {
        let mut m = Machine::new(
            MachineConfig::builder()
                .quantum_cycles(250_000_000)
                .build()
                .unwrap(),
        );
        let clock = BitClock::new(1_000_000, 2_500_000);
        let mut cfg = DividerChannelConfig::new(Message::from_bits(vec![true; 32]), clock);
        cfg.trojan_batch = batch;
        cfg.trojan_gap = tgap;
        cfg.spy_gap = sgap;
        cfg.spy_divs_per_iter = 1;
        cfg.samples_per_bit = 48;
        let log = SpyLog::new_handle();
        m.spawn(
            Box::new(DividerTrojan::new(cfg.clone())),
            m.config().context_id(0, 0),
        );
        m.spawn(
            Box::new(DividerSpy::new(cfg, log.clone())),
            m.config().context_id(0, 1),
        );
        let mut s = AuditSession::new();
        s.audit_divider(0, 500).unwrap();
        s.attach(&mut m);
        let data = QuantumRunner::new(250_000_000)
            .expect("nonzero quantum")
            .run(&mut m, &mut s, 1)
            .expect("audit harvest");
        let mut h = DensityHistogram::empty(500).expect("nonzero Δt");
        for x in &data.divider_histograms {
            h.merge(x).expect("every divider histogram shares one Δt");
        }
        let v = BurstDetector::default().analyze(&h);
        let nz: Vec<(usize, u64)> = h
            .bins()
            .iter()
            .enumerate()
            .filter(|(i, &f)| *i > 0 && f > 0)
            .map(|(i, &f)| (i, f))
            .collect();
        let ones: Vec<f64> = log.borrow().per_bit().iter().map(|&(_, x)| x).collect();
        let avg1 = ones.iter().sum::<f64>() / ones.len().max(1) as f64;
        println!("batch={batch} tgap={tgap} sgap={sgap}: peak={:?} range={:?} lat1={avg1:.1} bins={nz:?}", v.burst_peak, v.burst_range);
    }
}
