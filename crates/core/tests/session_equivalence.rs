//! The client/aggregator redesign's contract suite.
//!
//! 1. **Golden bit-identity** — `Dap::run_schemes`, over PM and over SW in
//!    band mode, must reproduce, bit for bit, outputs captured from the
//!    pre-redesign monolithic protocol (PM and SW, ε ∈ {1/4, 1/2, 1}, two
//!    seeds, all three schemes). The constants below were generated by running the
//!    monolith at commit `693a61c` on exactly these inputs.
//! 2. **Split-API equivalence** — driving `GroupPlan` → `client` →
//!    `DapSession::{ingest_batch, finalize}` by hand equals the one-shot
//!    drivers bit for bit, for PM and SW, across thread counts.
//! 3. **Sharded merge** — group-sharded sessions merged with
//!    `DapSession::merge` finalize exactly like single-session ingestion.
//! 4. **Ingestion edge cases** — empty groups, out-of-range reports,
//!    over-quota submissions, incompatible merges.
//! 5. **Histogram replay** — one prepared report set bucketed once
//!    (`Dap::bucket_prepared`) and replayed under two attacks
//!    (`Dap::run_schemes_bucketed`) equals, in every output field, a session
//!    that ingests the honest and then the poison reports; histograms no
//!    ingestion could leave are refused typed.

use dap_attack::{Anchor, Attack, PointAttack, Side, UniformAttack};
use dap_core::parallel::set_thread_override;
use dap_core::sw::SwDapConfig;
use dap_core::{
    Dap, DapConfig, DapError, DapOutput, DapSession, GroupHistogram, GroupPlan, Population,
    Scheme,
};
use dap_datasets::Dataset;
use dap_estimation::rng::seeded;
use dap_ldp::{Duchi, Epsilon, NumericMechanism, PiecewiseMechanism, SquareWave};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;

const EPS_GRID: [f64; 3] = [0.25, 0.5, 1.0];
const SEEDS: [u64; 2] = [3, 7];

fn pm_population(n: usize, gamma: f64, seed: u64) -> Population {
    let mut rng = seeded(seed);
    let m = (n as f64 * gamma).round() as usize;
    let honest = Dataset::Beta25.generate_signed(n - m, &mut rng);
    Population { honest, byzantine: m }
}

fn sw_population(n: usize, gamma: f64, seed: u64) -> Population {
    let mut rng = seeded(seed);
    let m = (n as f64 * gamma).round() as usize;
    let honest = Dataset::Beta25.generate_unit(n - m, &mut rng);
    Population { honest, byzantine: m }
}

fn pm_attack() -> UniformAttack {
    UniformAttack::of_upper(0.5, 1.0)
}

fn sw_attack() -> UniformAttack {
    UniformAttack::new(Anchor::AboveInputMax(0.5), Anchor::AboveInputMax(1.0))
}

fn pm_config(eps: f64) -> DapConfig {
    DapConfig { max_d_out: 48, ..DapConfig::paper_default(eps, Scheme::Emf) }
}

fn sw_config(eps: f64) -> SwDapConfig {
    SwDapConfig { max_d_out: 48, ..SwDapConfig::paper_default(eps, Scheme::Emf) }
}

/// Captured from the pre-redesign monolithic `Dap::run_schemes`:
/// `(eps index, seed index) → per-scheme (mean, γ̂, min_variance)` bits.
#[rustfmt::skip]
const PM_GOLDEN: [[[(u64, u64, u64); 3]; 2]; 3] = [
    [
        [(0xbfc6cfddf9b5185c, 0x3fc9f30203947046, 0x3fb5570c43bd281f),
         (0x3fb14e34ba7ed124, 0x3fc9f30203947046, 0x3fb4daad54d2b5f7),
         (0xbf9d18ca812d3918, 0x3fc9f30203947046, 0x3fb4daad54d2b5f7)],
        [(0xbfe33de4017bedd6, 0x3fcd7911d582caf0, 0x3fb5170a78e657e1),
         (0xbfed0d1d72449feb, 0x3fcd7911d582caf0, 0x3fb5999b6fec22bd),
         (0xbff0000000000000, 0x3fcd7911d582caf0, 0x3fb5999b6fec22bf)],
    ],
    [
        [(0xbfda95d7d776c1b2, 0x3fc6e57e320d729e, 0x3f9c4faa57ea1c0a),
         (0x3f923a12917d12f2, 0x3fc6e57e320d729e, 0x3f9a98dcf75bda24),
         (0xbf6b6917da8542ac, 0x3fc6e57e320d729e, 0x3f9a98dcf75bda24)],
        [(0xbfde46e259ca0c95, 0x3fcc928a732f7237, 0x3f9baf3d63aeeeec),
         (0xbfe282f45fcee2f0, 0x3fcc928a732f7237, 0x3f9c1d8e9a335716),
         (0xbfe623b981055753, 0x3fcc928a732f7237, 0x3f9c1d8e9a335716)],
    ],
    [
        [(0xbfda818e0492013b, 0x3fc8076e68779ce9, 0x3f81b446b19d0334),
         (0xbfcb8b19b260e39c, 0x3fc8076e68779ce9, 0x3f808c06610803d6),
         (0xbfcbe9aac7fed6c1, 0x3fc8076e68779ce9, 0x3f808c06610803d6)],
        [(0xbfe0a2fe306090dc, 0x3fcb901b7eb8a701, 0x3f8199819aa86af0),
         (0xbfdcda3fcc3ecb97, 0x3fcb901b7eb8a701, 0x3f812111ea1f95a8),
         (0xbfde5d87c26ceefe, 0x3fcb901b7eb8a701, 0x3f812111ea1f95a8)],
    ],
];

/// Captured from the pre-redesign monolithic SW protocol's `run_schemes`:
/// `(eps index, seed index) → per-scheme (mean, γ̂)` bits; every probed
/// side was `Right` (the attack sits in the right inflation band).
#[rustfmt::skip]
const SW_GOLDEN: [[[(u64, u64); 3]; 2]; 3] = [
    [
        [(0x3fdebe95b270a360, 0x3fcfbb042e9e405b),
         (0x3fdf1086c0160acf, 0x3fcfbb042e9e405b),
         (0x3fdfdc3c0481e116, 0x3fcfbb042e9e405b)],
        [(0x3fdebe528aebb660, 0x3fd0ba43ad07e104),
         (0x3fde7ba213bb1ed7, 0x3fd0ba43ad07e104),
         (0x3fdf61ee66a8cc66, 0x3fd0ba43ad07e104)],
    ],
    [
        [(0x3fdbe2ebf26e3e6a, 0x3fcf46c9eae896b8),
         (0x3fdc4247b2141de0, 0x3fcf46c9eae896b8),
         (0x3fdce262249d74df, 0x3fcf46c9eae896b8)],
        [(0x3fd9c00ec4dd7773, 0x3fd13db4bd3fad65),
         (0x3fd963eb239dfaf1, 0x3fd13db4bd3fad65),
         (0x3fdad65ea287e572, 0x3fd13db4bd3fad65)],
    ],
    [
        [(0x3fd956ee55a48501, 0x3fced91745892ed7),
         (0x3fda1193bbb84440, 0x3fced91745892ed7),
         (0x3fdaa2b6e7fa02e2, 0x3fced91745892ed7)],
        [(0x3fd83d6623778f79, 0x3fd0c804bacf9568),
         (0x3fd80c4889f053ea, 0x3fd0c804bacf9568),
         (0x3fd8a2ff40e127b1, 0x3fd0c804bacf9568)],
    ],
];

#[test]
fn pm_driver_reproduces_pre_redesign_outputs_bit_for_bit() {
    for (ei, &eps) in EPS_GRID.iter().enumerate() {
        for (si, &seed) in SEEDS.iter().enumerate() {
            let pop = pm_population(3_000, 0.2, seed * 1000 + ei as u64);
            let dap = Dap::new(pm_config(eps), PiecewiseMechanism::new).unwrap();
            let outs =
                dap.run_schemes(&pop, &pm_attack(), &Scheme::ALL, &mut seeded(seed)).unwrap();
            for (o, &(mean, gamma, min_var)) in outs.iter().zip(&PM_GOLDEN[ei][si]) {
                assert_eq!(
                    (o.mean.to_bits(), o.gamma.to_bits(), o.min_variance.to_bits()),
                    (mean, gamma, min_var),
                    "PM eps={eps} seed={seed}: output drifted from the pre-redesign protocol"
                );
            }
        }
    }
}

#[test]
fn sw_driver_reproduces_pre_redesign_outputs_bit_for_bit() {
    for (ei, &eps) in EPS_GRID.iter().enumerate() {
        for (si, &seed) in SEEDS.iter().enumerate() {
            let pop = sw_population(3_000, 0.25, seed * 2000 + ei as u64);
            let dap = Dap::new(sw_config(eps).session_config(), SquareWave::new).unwrap();
            let outs =
                dap.run_schemes(&pop, &sw_attack(), &Scheme::ALL, &mut seeded(seed)).unwrap();
            for (o, &(mean, gamma)) in outs.iter().zip(&SW_GOLDEN[ei][si]) {
                assert_eq!(
                    (o.mean.to_bits(), o.gamma.to_bits()),
                    (mean, gamma),
                    "SW eps={eps} seed={seed}: output drifted from the pre-redesign protocol"
                );
                assert_eq!(o.side, Side::Right, "SW eps={eps} seed={seed}");
            }
        }
    }
}

/// Replays the simulation through the raw split API: plan → client
/// perturbation → session ingestion, consuming the RNG exactly as the
/// driver does.
fn drive_session<M, F>(
    config: DapConfig,
    factory: F,
    population: &Population,
    attack: &dyn Attack,
    rng: &mut StdRng,
) -> DapSession<M>
where
    M: NumericMechanism + Sync,
    F: Fn(dap_ldp::Epsilon) -> M,
{
    let plan = GroupPlan::build(population.total(), config.eps, config.eps0, rng);
    let mut session = DapSession::new(config, plan, &factory).unwrap();
    let n_honest = population.honest.len();
    for g in 0..session.group_count() {
        let assign = session.client_assignment(g).unwrap();
        let mech = factory(assign.eps_t);
        let mut buf = vec![0.0f64; assign.k_t];
        let mut byz = 0usize;
        for i in 0..session.plan().assignment[g].len() {
            let user = session.plan().assignment[g][i];
            if user < n_honest {
                assign.perturb_into(&mech, population.honest[user], &mut buf, rng);
                session.ingest_batch(g, &buf).unwrap();
            } else {
                byz += 1;
            }
        }
        let mut poison = vec![0.0f64; byz * assign.k_t];
        let n = attack.reports_into(&mut poison, &mech, rng as &mut dyn RngCore);
        session.ingest_batch(g, &poison[..n]).unwrap();
    }
    session
}

/// Every field of every output, floats by bit pattern.
fn output_bits(outs: &[DapOutput]) -> Vec<Vec<u64>> {
    outs.iter()
        .map(|o| {
            let mut words = vec![
                o.mean.to_bits(),
                (o.side == Side::Right) as u64,
                o.gamma.to_bits(),
                o.min_variance.to_bits(),
            ];
            for g in &o.groups {
                words.extend([
                    g.eps_t.to_bits(),
                    g.n_reports as u64,
                    g.mean_t.to_bits(),
                    g.m_hat.to_bits(),
                    g.n_hat.to_bits(),
                    g.weight.to_bits(),
                ]);
            }
            words
        })
        .collect()
}

// The thread override is process-global, so every assertion that toggles it
// lives in ONE #[test] (concurrent tests would race on it otherwise).
#[test]
fn split_api_matches_drivers_bitwise_across_thread_counts() {
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));

        // PM: manual session driving vs the one-shot driver.
        for &eps in &EPS_GRID {
            let pop = pm_population(2_400, 0.2, 11);
            let cfg = pm_config(eps);
            let session = drive_session(
                cfg,
                PiecewiseMechanism::new,
                &pop,
                &pm_attack(),
                &mut seeded(21),
            );
            let manual = session.finalize(&Scheme::ALL).unwrap();
            let driver = Dap::new(cfg, PiecewiseMechanism::new)
                .unwrap()
                .run_schemes(&pop, &pm_attack(), &Scheme::ALL, &mut seeded(21))
                .unwrap();
            assert_eq!(
                output_bits(&manual),
                output_bits(&driver),
                "PM eps={eps} threads={threads}: split API diverged from the driver"
            );
        }

        // SW: same equivalence through the band-mode session config.
        let pop = sw_population(2_400, 0.25, 12);
        let swc = sw_config(0.5);
        let session = drive_session(
            swc.session_config(),
            SquareWave::new,
            &pop,
            &sw_attack(),
            &mut seeded(22),
        );
        let manual = session.finalize(&Scheme::ALL).unwrap();
        let driver = Dap::new(swc.session_config(), SquareWave::new)
            .unwrap()
            .run_schemes(&pop, &sw_attack(), &Scheme::ALL, &mut seeded(22))
            .unwrap();
        let manual_bits: Vec<_> =
            manual.iter().map(|o| (o.mean.to_bits(), o.gamma.to_bits(), o.side)).collect();
        let driver_bits: Vec<_> =
            driver.iter().map(|o| (o.mean.to_bits(), o.gamma.to_bits(), o.side)).collect();
        assert_eq!(manual_bits, driver_bits, "SW threads={threads}");
        set_thread_override(None);
    }
}

#[test]
fn group_sharded_merge_equals_single_session_exactly() {
    let pop = pm_population(2_400, 0.2, 13);
    let cfg = pm_config(0.5);
    let attack = pm_attack();

    // One RNG pass produces the canonical per-group report batches…
    let mut rng = seeded(23);
    let plan = GroupPlan::build(pop.total(), cfg.eps, cfg.eps0, &mut rng);
    let n_honest = pop.honest.len();
    let mut per_group: Vec<Vec<f64>> = Vec::new();
    for g in 0..plan.len() {
        let assign = plan.client_assignment(g);
        let mech = PiecewiseMechanism::new(assign.eps_t);
        let mut batch = Vec::new();
        let mut buf = vec![0.0f64; assign.k_t];
        let mut byz = 0usize;
        for &user in &plan.assignment[g] {
            if user < n_honest {
                assign.perturb_into(&mech, pop.honest[user], &mut buf, &mut rng);
                batch.extend_from_slice(&buf);
            } else {
                byz += 1;
            }
        }
        let mut poison = vec![0.0f64; byz * assign.k_t];
        let n = attack.reports_into(&mut poison, &mech, &mut rng);
        batch.extend_from_slice(&poison[..n]);
        per_group.push(batch);
    }

    // …ingested either into one session, or group-sharded across three.
    let mut single = DapSession::new(cfg, plan.clone(), PiecewiseMechanism::new).unwrap();
    let mut shards: Vec<DapSession<PiecewiseMechanism>> = (0..3)
        .map(|_| DapSession::new(cfg, plan.clone(), PiecewiseMechanism::new).unwrap())
        .collect();
    for (g, batch) in per_group.iter().enumerate() {
        single.ingest_batch(g, batch).unwrap();
        shards[g % 3].ingest_batch(g, batch).unwrap();
    }
    let merged = DapSession::merge(shards).unwrap();

    // State and outputs are exactly equal — counts, sums, estimates.
    for g in 0..single.group_count() {
        assert_eq!(single.histogram(g).n_reports, merged.histogram(g).n_reports);
        assert_eq!(
            single.histogram(g).sum_reports.to_bits(),
            merged.histogram(g).sum_reports.to_bits(),
            "group {g} report sum"
        );
        assert_eq!(single.histogram(g).counts, merged.histogram(g).counts, "group {g}");
    }
    let a = single.finalize(&Scheme::ALL).unwrap();
    let b = merged.finalize(&Scheme::ALL).unwrap();
    assert_eq!(output_bits(&a), output_bits(&b), "merged finalize diverged");
}

#[test]
fn populations_smaller_than_the_group_count_leave_empty_groups() {
    // ε = 1/4, ε₀ = 1/16 → 3 groups for 2 users: at least one group is
    // empty and the run must still succeed end to end.
    let pop = Population { honest: vec![0.4, -0.1], byzantine: 0 };
    let cfg = DapConfig { max_d_out: 16, ..DapConfig::paper_default(0.25, Scheme::Emf) };
    let out = Dap::new(cfg, PiecewiseMechanism::new)
        .unwrap()
        .run(&pop, &dap_attack::NoAttack, &mut seeded(31))
        .unwrap();
    assert_eq!(out.groups.len(), 3);
    assert!(out.groups.iter().any(|g| g.n_reports == 0), "expected an empty group");
    assert!(out.mean.is_finite());
}

#[test]
fn out_of_range_and_over_quota_ingestion_is_rejected() {
    let cfg = pm_config(0.25);
    let plan = GroupPlan::build(60, cfg.eps, cfg.eps0, &mut seeded(41));
    let mut session = DapSession::new(cfg, plan, PiecewiseMechanism::new).unwrap();
    let (_, hi) = PiecewiseMechanism::with_epsilon(0.25).unwrap().output_range();

    // Reports beyond the output domain never enter the histogram.
    let err = session.ingest(0, hi * 2.0).unwrap_err();
    assert!(matches!(err, DapError::ReportOutOfRange { group: 0, .. }));
    assert!(session.ingest(0, f64::NAN).is_err());
    assert_eq!(session.ingested(0), 0);

    // A batch straddling the quota is rejected atomically.
    let quota = session.quota(0);
    session.ingest_batch(0, &vec![0.0; quota - 1]).unwrap();
    let err = session.ingest_batch(0, &[0.0, 0.0]).unwrap_err();
    assert!(matches!(err, DapError::QuotaExceeded { group: 0, .. }));
    assert_eq!(session.ingested(0), quota - 1);

    // Merging sessions whose combined volume overflows the quota fails too.
    let plan2 = GroupPlan::build(60, cfg.eps, cfg.eps0, &mut seeded(41));
    let mut other = DapSession::new(cfg, plan2, PiecewiseMechanism::new).unwrap();
    other.ingest_batch(0, &[0.0, 0.0]).unwrap();
    let err = DapSession::merge([session, other]).unwrap_err();
    assert!(matches!(err, DapError::QuotaExceeded { group: 0, .. }));
}

/// Buckets one prepared report set, replays the histograms under both
/// attacks and compares each replay with a reference session; then offers
/// forged histograms to a session and checks that each is refused typed
/// and leaves the session as it was.
fn check_bucketed_replay<M, F>(
    cfg: DapConfig,
    factory: F,
    population: &Population,
    attacks: [&dyn Attack; 2],
    schemes: &[Scheme],
    seed: u64,
) where
    M: NumericMechanism + Sync,
    F: Fn(Epsilon) -> M + Copy + Sync,
{
    let dap = Dap::new(cfg, factory).unwrap();
    let prepared =
        dap.prepare_reports(&population.honest, population.byzantine, &mut seeded(seed)).unwrap();
    let honest = dap.bucket_prepared(&prepared).unwrap();
    let mut poisons = Vec::new();
    for (i, attack) in attacks.into_iter().enumerate() {
        let mut rng = seeded(seed ^ (i as u64 + 1));
        let poison = dap.poison_batches(&prepared, attack, &mut rng).unwrap();
        let mut reference = DapSession::new(cfg, prepared.plan.clone(), factory).unwrap();
        for (g, reports) in prepared.group_reports.iter().enumerate() {
            reference.ingest_batch(g, reports).unwrap();
        }
        for (g, batch) in poison.iter().enumerate() {
            reference.ingest_batch(g, batch).unwrap();
        }
        let replayed = dap.run_schemes_bucketed(&prepared, &honest, &poison, schemes).unwrap();
        assert_eq!(
            output_bits(&replayed),
            output_bits(&reference.finalize(schemes).unwrap()),
            "attack {i}: the histogram replay diverged from ingesting the reports"
        );
        poisons.push(poison);
    }

    // Forgeries, offered to a session that already holds a coalition's
    // reports. `g` is the fullest group; `i` a filled bucket, `j` another.
    let mut session = DapSession::new(cfg, prepared.plan.clone(), factory).unwrap();
    for (g, batch) in poisons[0].iter().enumerate() {
        session.ingest_batch(g, batch).unwrap();
    }
    let before = session.content_digest();
    let g = (0..honest.len()).max_by_key(|&g| honest[g].n_reports).unwrap();
    let i = honest[g].counts.iter().position(|&c| c > 0.0).expect("a filled bucket");
    let j = (i + 1) % honest[g].counts.len();
    let forge = |f: &dyn Fn(&mut GroupHistogram)| {
        let mut hists = honest.clone();
        f(&mut hists[g]);
        hists
    };
    let room = session.quota(g) - session.ingested(g) - honest[g].n_reports;
    let d_top = honest[g].counts.len();
    assert!(d_top >= 4, "the fullest group has {d_top} buckets");
    let coarser = DapConfig { max_d_out: d_top - 2, ..cfg };
    let values = |what| DapError::SessionMismatch { what };
    let forgeries: Vec<(&str, Vec<GroupHistogram>, DapError)> = vec![
        (
            "another max_d_out",
            Dap::new(coarser, factory).unwrap().bucket_prepared(&prepared).unwrap(),
            values("part histogram resolution"),
        ),
        ("NaN count", forge(&|h| h.counts[i] = f64::NAN), values("part histogram values")),
        (
            "negative count",
            forge(&|h| {
                h.counts[j] += h.counts[i] + 1.0;
                h.counts[i] = -1.0;
            }),
            values("part histogram values"),
        ),
        (
            "fractional count",
            forge(&|h| {
                h.counts[i] -= 0.5;
                h.counts[j] += 0.5;
            }),
            values("part histogram values"),
        ),
        // Below the true tally: the group may have no room for one more.
        ("wrong total", forge(&|h| h.n_reports -= 1), values("part histogram values")),
        (
            "count over quota",
            forge(&|h| {
                h.counts[i] += (room + 1) as f64;
                h.n_reports += room + 1;
            }),
            DapError::QuotaExceeded {
                group: g,
                quota: session.quota(g),
                ingested: session.ingested(g),
                attempted: honest[g].n_reports + room + 1,
            },
        ),
    ];
    for (label, hists, want) in forgeries {
        let err = session.ingest_histograms(&hists).unwrap_err();
        assert_eq!(err, want, "{label}");
        assert_eq!(session.content_digest(), before, "{label} left a trace");
        let err = dap.run_schemes_bucketed(&prepared, &hists, &poisons[0], schemes).unwrap_err();
        assert!(
            matches!(err, DapError::SessionMismatch { .. } | DapError::QuotaExceeded { .. }),
            "{label}: the replay let it through ({err})"
        );
    }
    session.ingest_histograms(&honest).expect("the honest histograms fit");
}

proptest! {
    /// The histogram replay is the report replay, bit for bit: PM, SW in
    /// band mode and Duchi; ε from 1/16 to 4; γ from 0 to 0.4; `max_d_out`
    /// from 16 to 128; every subset of the schemes. One bucketing serves
    /// two attacks.
    #[test]
    fn histogram_replay_equals_report_replay_bit_for_bit(
        mech in 0usize..3,
        eps in 0.0625f64..=4.0,
        gamma in 0.0f64..=0.4,
        max_d_out in 16usize..=128,
        subset in 0usize..8,
        n in 200usize..=600,
        seed in 0u64..1_000_000,
    ) {
        let schemes: Vec<Scheme> =
            (0..3).filter(|b| subset >> b & 1 == 1).map(|b| Scheme::ALL[b]).collect();
        let cfg = DapConfig { max_d_out, ..DapConfig::paper_default(eps, Scheme::Emf) };
        match mech {
            0 => check_bucketed_replay(
                cfg,
                PiecewiseMechanism::new,
                &pm_population(n, gamma, seed),
                [&pm_attack(), &PointAttack { value: Anchor::OfLower(0.75) }],
                &schemes,
                seed,
            ),
            1 => check_bucketed_replay(
                SwDapConfig { max_d_out, ..SwDapConfig::paper_default(eps, Scheme::Emf) }
                    .session_config(),
                SquareWave::new,
                &sw_population(n, gamma, seed),
                [&sw_attack(), &PointAttack { value: Anchor::AboveInputMax(0.75) }],
                &schemes,
                seed,
            ),
            _ => check_bucketed_replay(
                cfg,
                Duchi::new,
                &pm_population(n, gamma, seed),
                [&pm_attack(), &PointAttack { value: Anchor::OfLower(0.75) }],
                &schemes,
                seed,
            ),
        }
    }
}
