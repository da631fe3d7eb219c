//! Integration of the three fusion strategies over world-generated data
//! (crates: orgsim, pipeline, fusion, models, eval).

use cross_modal::prelude::*;

fn setup(seed: u64) -> (TaskData, CurationOutput) {
    let data = TaskData::generate(TaskConfig::paper(TaskId::Ct2).scaled(0.04), seed, Some(400));
    let curation = curate(&data, &CurationConfig::default());
    (data, curation)
}

#[test]
fn all_strategies_produce_valid_models() {
    let (data, curation) = setup(3);
    let runner = ScenarioRunner {
        data: &data,
        model: ModelKind::Mlp { hidden: vec![12] },
        train: TrainConfig { epochs: 6, patience: None, ..TrainConfig::default() },
    };
    let mut results = Vec::new();
    for strategy in [FusionStrategy::Early, FusionStrategy::Intermediate, FusionStrategy::DeVise] {
        let mut s = Scenario::cross_modal(&FeatureSet::SHARED);
        s.strategy = strategy;
        s.name = format!("{strategy:?}");
        let eval = runner.run(&s, Some(&curation), &ParConfig::from_env()).unwrap();
        assert!(eval.auprc.is_finite() && eval.auprc >= 0.0);
        results.push((format!("{strategy:?}"), eval.auprc));
    }
    // All should beat random ranking (positive rate ~0.09) at least 2x.
    for (name, ap) in &results {
        assert!(*ap > 0.18, "{name} AUPRC {ap} is near chance");
    }
}

#[test]
fn early_fusion_is_competitive_with_alternatives() {
    // §6.6: early fusion wins on average. A single small-scale seed only
    // supports a weaker claim: early fusion is within noise of the best.
    let (data, curation) = setup(7);
    let runner = ScenarioRunner {
        data: &data,
        model: ModelKind::Mlp { hidden: vec![12] },
        train: TrainConfig { epochs: 8, patience: None, ..TrainConfig::default() },
    };
    let ap = |strategy: FusionStrategy| {
        let mut s = Scenario::cross_modal(&FeatureSet::SHARED);
        s.strategy = strategy;
        runner.run(&s, Some(&curation), &ParConfig::from_env()).unwrap().auprc
    };
    let early = ap(FusionStrategy::Early);
    let inter = ap(FusionStrategy::Intermediate);
    let devise = ap(FusionStrategy::DeVise);
    assert!(
        early >= inter.max(devise) * 0.8,
        "early {early:.3} vs intermediate {inter:.3} / devise {devise:.3}"
    );
}

#[test]
fn logistic_and_mlp_families_both_work_end_to_end() {
    let (data, curation) = setup(11);
    for model in [ModelKind::Logistic, ModelKind::Mlp { hidden: vec![8] }] {
        let runner = ScenarioRunner {
            data: &data,
            model,
            train: TrainConfig { epochs: 6, patience: None, ..TrainConfig::default() },
        };
        let eval = runner
            .run(
                &Scenario::cross_modal(&FeatureSet::SHARED),
                Some(&curation),
                &ParConfig::from_env(),
            )
            .unwrap();
        assert!(eval.auprc > 0.18, "AUPRC {}", eval.auprc);
    }
}

#[test]
fn feature_set_ladder_is_monotonic_in_the_large() {
    let par = ParConfig::from_env();
    // Figure 6/7 shape at test scale: ABCD should beat A alone (weaker
    // claim than full monotonicity, which needs bench-scale data).
    let (data, curation) = setup(13);
    let runner = ScenarioRunner {
        data: &data,
        model: ModelKind::Logistic,
        train: TrainConfig { epochs: 8, ..TrainConfig::default() },
    };
    let a =
        runner.run(&Scenario::cross_modal(&[FeatureSet::A]), Some(&curation), &par).unwrap().auprc;
    let abcd = runner
        .run(&Scenario::cross_modal(&FeatureSet::SHARED), Some(&curation), &par)
        .unwrap()
        .auprc;
    assert!(abcd > a, "all feature sets ({abcd:.3}) should beat set A alone ({a:.3})");
}
