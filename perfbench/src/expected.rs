//! Digests recorded from uninterrupted runs, per workload seed: the `search-qsort-2obj`
//! search (stream 0), the fleet's second job (stream 1), and the sweep's objective values.
//! Regenerate with
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --record 0 64`
//! and paste the output over `RECORDED`.

use crate::workloads;
use parmis::evaluation::PolicyEvaluator;
use parmis::framework::Parmis;
use parmis::jobs::outcome_digest;

/// `(workload seed, qsort stream 0, qsort stream 1, sweep)`.
#[rustfmt::skip]
const RECORDED: &[(u64, u64, u64, u64)] = &[
    (0, 0xf03ab8307894373d, 0x73125acaa892fe88, 0xb8bd240eb4b8f0c5),
    (1, 0x8c46a6d4b9b1e895, 0x199896b3f2bdefdc, 0x2a0be34e55b57d1e),
    (2, 0xe48b9dea91bb20a4, 0x18a27dd31f58792c, 0xc5035b514e7d0108),
    (3, 0xd7c7de480ca4bbd7, 0xa2040982f7bc20b3, 0x89736aaf4c7a2d25),
    (4, 0xf8e039d8855da5c7, 0x42c8391bd849c60f, 0x10f69477a3722ba1),
    (5, 0xbb74d4eb6603ddf5, 0x7db90204111e5e2e, 0x6eb307b0ff4376bf),
    (6, 0xe3250fbf94300559, 0x05c5b1279fafb521, 0x3f40f53fbfc5044d),
    (7, 0xd1f94bbf3163e0ae, 0x1f817a8608b51fd0, 0xf9f16778dca21288),
    (8, 0x57285a8b234894fd, 0xa4dbade5c005bf4d, 0x9382605771c586fe),
    (9, 0xce8a6cd09998f9e0, 0x2451950584545221, 0xa380eba6d7b39bfb),
    (10, 0x42c112161b0cf83e, 0xe3e430340057bb40, 0xc30f4ad18ccf7262),
    (11, 0xf4eba57ccc035fa0, 0x022ce2670f7a678b, 0xe103d1e58fff86b7),
    (12, 0xb7b53e92edf6fd2e, 0x9dfbc0f21150a1d5, 0x08fb408e5f495b71),
    (13, 0xf1dd342bb9726ee7, 0xef9acc5114a8834a, 0xfe950f3fcf87f0c7),
    (14, 0x93fb58d7dd3b4fa1, 0x9e18dadf48f189ef, 0x14b396373143f782),
    (15, 0x57bb0fba031038ed, 0xc7098cdc485cb76e, 0x3d1e5be75a33838e),
    (16, 0x90c42d3271ea5853, 0x660638773f9d2447, 0x66e3899b47ae5435),
    (17, 0x224217a39c257496, 0x3bc48ae24264b523, 0x4a8299bb4d610999),
    (18, 0xa8d16c1233f224b9, 0x93a8d020e1217ee6, 0x9e9c67187e0f62a6),
    (19, 0x4743288e372c474c, 0x685b6360cd01d6c7, 0x71a5cd0f83edd66e),
    (20, 0x759914dc2916b103, 0xf46d591b312dd91e, 0xc180b3955649b723),
    (21, 0x8194fa8a95580430, 0xdce995ec081eb0f3, 0x0906f1f542f736be),
    (22, 0xa20ea44e14cfad63, 0x589039e921037425, 0x4efc8d7744af8c4c),
    (23, 0xd3e2244be9cb110b, 0x23a90b60a4223f73, 0x84a89ada2a357fc3),
    (24, 0x7421a8f03a4a41cc, 0x15b102bdee2ceaa4, 0x3377cc8c82c093d1),
    (25, 0x7eee58b1239ca663, 0xb2ba1dcf765508d1, 0x2ccb621a5fc6c23b),
    (26, 0xc8cf9c9e432ea626, 0xea3b32754e5c5047, 0xf4621d587d04281c),
    (27, 0x790ffa4b8bee3915, 0x146c2fa4d82ce720, 0x5e569e3b9bc88e24),
    (28, 0x55a4c9fd9d77202c, 0xf254dbff8be6090f, 0xe4ba72f36d1089a9),
    (29, 0xe508857cbcfd208e, 0x1f0907c2b174700e, 0xbdfeecb50eca1682),
    (30, 0xb25418309dbe11b4, 0xbdbdb865944d380b, 0x807f8523e188607f),
    (31, 0x68ee3c367a68c3c3, 0xd7dec2c90f8812de, 0xdb2ce4fbafd72a8b),
    (32, 0x9f788c240f3dcc13, 0x0904760669ba2fcc, 0xe221ea5e181ea4d8),
    (33, 0x134f8cbdfef9de1c, 0xbda82798135edffb, 0x176a9047f2def463),
    (34, 0x342a772ef39d5642, 0xa9eaed6bf555c4a1, 0x37941b89584c90c1),
    (35, 0x7196444ff0d26944, 0x017fd7ad894380be, 0x5ba673167b1faf75),
    (36, 0xc5d1e3742fad8dda, 0x7901d4eb6eb217bc, 0x3c87169fe706208d),
    (37, 0x79e3e982b5bf2e91, 0x9b5f3831f378e4f6, 0xb6c2cab627a39f23),
    (38, 0xd1699199f8d9aa78, 0xa9e9fc698f4eef09, 0xce9ece3335ad233b),
    (39, 0x765331af93a1c6a5, 0x49d9e9ab29b2b861, 0x130f89e43210044b),
    (40, 0x1d30f332176c79d2, 0xad46ba4983e154f0, 0x5c273fb19cd29f08),
    (41, 0xe5af93d43e3915d1, 0x50fe534c046175a2, 0xb4fdb47ee8d2ea10),
    (42, 0xc6623ba8d857c236, 0xcd9ec633350d8472, 0x6c633cd36bf86d3b),
    (43, 0xcbe436eb80ae7a46, 0x7aa2badee3e317f2, 0x88064112304b2609),
    (44, 0x3e0844bf51c510f7, 0xa1fd4e8fc03da0ad, 0x4c371c71ead81e0b),
    (45, 0x65e0f33ffe7d6eb7, 0x85cb266f76436948, 0x0ec632d049eb8f8a),
    (46, 0x34af44937521a358, 0x25407d763eb5937a, 0x5ad8c131603bd8f2),
    (47, 0x540c133e5b81f08b, 0xa2ce410f369445b5, 0x708a6051fd1cc69c),
    (48, 0x427acebfba383e15, 0x61384772e45eccb4, 0x20c0c822c4b5cbca),
    (49, 0xa513c1b888077b92, 0x230b4a9bedb27bc9, 0xa06df504b2718d64),
    (50, 0x762ed4eaa4f4ec19, 0x61eb5d18c430049d, 0xf814884f87445885),
    (51, 0xe6f76071f14849d6, 0xa513b58d88c67871, 0x86cf800d7e0229bc),
    (52, 0x97d644961adf0dd9, 0xcd34fe7d31ad186a, 0x69f6837a19ae8b61),
    (53, 0xcc804f4887171652, 0x9af3c7e52f9152c8, 0x7f7ab64e6acd6c6e),
    (54, 0x2486a3676909100c, 0x0dfac24c602c3970, 0x81bf163bd2c23111),
    (55, 0xd575889c7ec74c6f, 0x51ad569904dcb585, 0xb1e4ff5fe2efcff1),
    (56, 0x0f68b08678c6f508, 0x7e8bffe619b9fcf2, 0x75727131d64ce17e),
    (57, 0x213dcf8e0b4be154, 0xecb88c43c4a001bd, 0x78468b0302058ecc),
    (58, 0xebbea259a0ee6b91, 0x76ca38661772b286, 0x936e867a82d27c5f),
    (59, 0x819deb2dfd5025ea, 0x83d1d5fd33ebf872, 0xa6730ca9013e8577),
    (60, 0x31b7ffadc99162d8, 0x545a88fd37427362, 0x284d21bab936ee7e),
    (61, 0xa79c9c112362834d, 0x77a57b67bc35bc53, 0x87c68edf1d01554d),
    (62, 0x7346ed8416e3246b, 0xfe9a2fd80eec18f9, 0xb17f3148c251043e),
    (63, 0x066e6054e6cdd46c, 0x639f649ce509ea26, 0x23cb9c42f9f4f01a),
];

fn row(seed: u64) -> Option<&'static (u64, u64, u64, u64)> {
    RECORDED.iter().find(|r| r.0 == seed)
}

/// Recorded outcome digests of the uninterrupted Qsort searches of streams 0 and 1.
pub fn qsort_digests(seed: u64) -> Option<[u64; 2]> {
    row(seed).map(|r| [r.1, r.2])
}

/// Recorded digest of the sweep's objective values.
pub fn sweep_digest(seed: u64) -> Option<u64> {
    row(seed).map(|r| r.3)
}

/// Prints `RECORDED` rows for seeds `from..to`, two seeds at a time.
pub fn record(from: u64, to: u64) -> Result<(), String> {
    let seeds: Vec<u64> = (from..to).collect();
    for pair in seeds.chunks(2) {
        let rows: Vec<Result<(u64, u64, u64), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = pair
                .iter()
                .map(|&seed| scope.spawn(move || recorded_row(seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("record worker"))
                .collect()
        });
        for (&seed, row) in pair.iter().zip(rows) {
            let (a, b, c) = row?;
            println!("    ({seed}, 0x{a:016x}, 0x{b:016x}, 0x{c:016x}),");
        }
    }
    Ok(())
}

/// Recorded digests of uninterrupted runs: the `search-qsort-2obj` search streams 0 and 1
/// (stream 1 is the fleet's second job) and the sweep's output digest.
fn recorded_row(seed: u64) -> Result<(u64, u64, u64), String> {
    let qsort = |stream: u64| -> Result<u64, String> {
        let config = workloads::qsort_config(workloads::search_seed(seed, stream));
        let outcome = Parmis::new(config)
            .run(&workloads::qsort_evaluator()?)
            .map_err(|e| e.to_string())?;
        Ok(outcome_digest(&outcome))
    };
    let evaluator = workloads::suite_evaluator();
    let thetas =
        workloads::sweep_thetas(seed, evaluator.parameter_dim(), evaluator.parameter_bound());
    let mut values = Vec::with_capacity(thetas.len());
    for chunk in thetas.chunks(workloads::SWEEP_BATCH) {
        values.extend(evaluator.evaluate_batch(chunk).map_err(|e| e.to_string())?);
    }
    Ok((qsort(0)?, qsort(1)?, workloads::values_digest(&values)))
}
