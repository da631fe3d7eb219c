//! Golden equivalence between the checked-in specs and the code-defined
//! experiment matrix they replaced.
//!
//! `specs/fusion_compare.json` and `specs/table1.json` are pinned against
//! the `Scenario` constructors the binaries used before the spec surface
//! existed, and one spec-built scenario is trained end-to-end to show the
//! spec path produces bit-identical results — not merely equal configs.

use cm_bench::{load_spec, spec_reservoir, spec_scenario, TaskRun};
use cm_featurespace::FeatureSet;
use cm_orgsim::TaskId;
use cm_par::ParConfig;
use cm_pipeline::{curate, FusionStrategy, LabelSource, Scenario};

#[test]
fn fusion_compare_spec_matches_code_defined_scenarios() {
    let spec = load_spec("fusion_compare");
    assert_eq!(spec.scale, 0.5);
    assert_eq!(spec.seeds, 3);
    assert_eq!(spec.seed, 42);
    assert_eq!(spec_reservoir(&spec, 1.0), Some(4000));

    let sets = FeatureSet::SHARED;
    assert_eq!(spec_scenario(&spec, "cross-modal T,I+ABCD"), Scenario::cross_modal(&sets));
    assert_eq!(spec_scenario(&spec, "image-only I+ABCD"), Scenario::image_only(&sets));

    let mut inter = Scenario::cross_modal(&sets);
    inter.name = "intermediate".into();
    inter.strategy = FusionStrategy::Intermediate;
    assert_eq!(spec_scenario(&spec, "intermediate"), inter);

    let mut devise = Scenario::cross_modal(&sets);
    devise.name = "devise".into();
    devise.strategy = FusionStrategy::DeVise;
    assert_eq!(spec_scenario(&spec, "devise"), devise);

    let raw = Scenario {
        name: "raw embedding (weak)".into(),
        text_sets: Vec::new(),
        image_sets: Vec::new(),
        image_labels: Some(LabelSource::Weak),
        include_modality_specific: true,
        strategy: FusionStrategy::Early,
    };
    assert_eq!(spec_scenario(&spec, "raw embedding (weak)"), raw);
}

#[test]
fn table1_spec_pins_the_paper_configuration() {
    let spec = load_spec("table1");
    assert_eq!(spec.tasks, TaskId::ALL.to_vec());
    assert_eq!(spec.scale, 1.0);
    assert_eq!(spec.seeds, 1);
    assert_eq!(spec.seed, 42);
    assert!(spec.n_labeled_image.is_none());
    assert!(spec.scenarios.is_empty());
}

#[test]
fn spec_driven_scenarios_train_bit_identically_to_code_defined() {
    let spec = load_spec("fusion_compare");
    let run = TaskRun::new(TaskId::Ct2, 0.03, 17, Some(400));
    let curation = curate(&run.data, &run.curation_config(17));
    let runner = run.runner();
    let par = ParConfig::serial();
    for (name, code) in [
        ("cross-modal T,I+ABCD", Scenario::cross_modal(&FeatureSet::SHARED)),
        ("image-only I+ABCD", Scenario::image_only(&FeatureSet::SHARED)),
    ] {
        let from_spec = runner.run(&spec_scenario(&spec, name), Some(&curation), &par).unwrap();
        let from_code = runner.run(&code, Some(&curation), &par).unwrap();
        assert_eq!(from_spec, from_code, "{name}");
        assert_eq!(from_spec.auprc.to_bits(), from_code.auprc.to_bits(), "{name}");
    }
}
