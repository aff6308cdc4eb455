//! Property-based tests of PCC: utility-function shape, controller
//! invariants, and monitor-interval accounting (via the in-tree
//! `propcheck` engine).

use dui_netsim::time::{SimDuration, SimTime};
use dui_pcc::control::{ControlConfig, Controller, EPS_MIN};
use dui_pcc::monitor::MonitorAccounting;
use dui_pcc::utility::{allegro_utility, equalizing_drop_rate};
use dui_stats::{prop_assert, prop_assert_eq, prop_check};

prop_check! {
    fn utility_increasing_in_rate_at_low_loss(g) {
        let x = g.f64(0.1..1000.0);
        let dx = g.f64(0.001..100.0);
        let loss = g.f64(0.0..0.02);
        prop_assert!(allegro_utility(x + dx, loss) > allegro_utility(x, loss));
    }

    fn utility_decreasing_in_loss(g) {
        let x = g.f64(0.1..1000.0);
        let l = g.f64(0.0..0.9);
        let dl = g.f64(0.001..0.1);
        prop_assert!(allegro_utility(x, (l + dl).min(1.0)) <= allegro_utility(x, l) + 1e-9);
    }

    fn equalizer_root_actually_equalizes(g) {
        let rate = g.f64(1.0..100.0);
        let eps = g.f64(0.005..0.3);
        if let Some(d) = equalizing_drop_rate(rate, eps, 0.0) {
            let u_hi = allegro_utility(rate * (1.0 + eps), d);
            let u_lo = allegro_utility(rate * (1.0 - eps), 0.0);
            prop_assert!((u_hi - u_lo).abs() <= 1e-5 * (1.0 + u_lo.abs()), "{u_hi} vs {u_lo}");
        }
    }

    fn controller_rates_always_within_bounds(g) {
        let seed = g.any_u64();
        let utilities = g.vec(1..200, |g| g.f64(-10.0..10.0));
        let cfg = ControlConfig::default();
        let mut c = Controller::new(cfg, 1e6, seed);
        for u in utilities {
            let r = c.next_mi_rate();
            prop_assert!(r >= cfg.min_rate && r <= cfg.max_rate);
            c.on_report(u);
            prop_assert!(c.base_rate() >= cfg.min_rate && c.base_rate() <= cfg.max_rate);
            prop_assert!(c.epsilon() >= EPS_MIN - 1e-12 && c.epsilon() <= cfg.eps_max + 1e-12);
        }
    }

    fn controller_trial_rates_bracket_base(g) {
        let seed = g.any_u64();
        let cfg = ControlConfig::default();
        let mut c = Controller::new(cfg, 1e6, seed);
        // Exit Starting.
        let _ = c.next_mi_rate();
        c.on_report(1.0);
        let _ = c.next_mi_rate();
        c.on_report(0.5);
        for _ in 0..40 {
            let base = c.base_rate();
            let r = c.next_mi_rate();
            c.on_report(5.0); // constant => inconclusive forever
            let dev = (r - base).abs() / base;
            prop_assert!(dev <= cfg.eps_max + 1e-9, "trials stay within ±eps_max of base");
        }
    }

    fn accounting_loss_fraction_valid(g) {
        let sends = g.vec(1..20, |g| g.u64(0..50));
        let ack_mask = g.any_u64();
        let mut acc = MonitorAccounting::new();
        let mut seq = 0u64;
        for (i, &n) in sends.iter().enumerate() {
            let mi = acc.open_mi(
                SimTime(i as u64 * 1_000_000),
                SimTime(i as u64 * 1_000_000 + 900_000),
                1e6,
            );
            for _ in 0..n {
                acc.on_send(mi, seq);
                if ack_mask & (1 << (seq % 64)) != 0 {
                    acc.on_ack(seq);
                }
                seq += 1;
            }
        }
        let reports = acc.finalize_due(SimTime(u64::MAX / 2), SimDuration::ZERO);
        prop_assert_eq!(reports.len(), sends.len());
        for r in reports {
            prop_assert!((0.0..=1.0).contains(&r.loss));
            prop_assert!(r.delivered <= r.sent);
        }
    }
}
