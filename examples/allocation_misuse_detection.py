#!/usr/bin/env python3
"""Scenario: detecting deviation from allocation purpose.

The paper's motivating use case (guiding questions 1–3): a project
allocation was granted for one kind of application; suddenly the user
starts executing something entirely different — a different preinstalled
application, or software unknown to the site (worst case, a
cryptominer).  This example simulates that situation:

* the site trains the Fuzzy Hash Classifier on its software tree,
* an allocation is declared to run only molecular-dynamics-style codes,
* the monitored "job executables" mix legitimate binaries from those
  classes with binaries from other classes and from classes the model
  has never seen,
* the classification service flags everything outside the allocation.

Run with::

    python examples/allocation_misuse_detection.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    ClassificationService,
    CorpusBuilder,
    CorpusScanner,
    FeatureExtractionPipeline,
    FuzzyHashClassifier,
    default_config,
)
from repro.api.service import DECISION_EXPECTED, render_report
from repro.logging_utils import configure_logging


def main() -> int:
    configure_logging("WARNING")
    config = default_config("small", seed=11)

    with tempfile.TemporaryDirectory(prefix="repro-misuse-") as tmp:
        tree = Path(tmp) / "software"
        builder = CorpusBuilder(config=config)
        dataset = builder.materialize_tree(tree)
        class_names = dataset.class_names
        print(f"software tree: {dataset.summary()}")

        # The model is trained on everything *except* two classes, which
        # play the role of software unknown to the site.
        unknown_to_site = class_names[-2:]
        known_to_site = [c for c in class_names if c not in unknown_to_site]
        print(f"\nclasses known to the site:   {', '.join(known_to_site)}")
        print(f"classes unknown to the site: {', '.join(unknown_to_site)}")

        scan = CorpusScanner(tree).scan()
        features = FeatureExtractionPipeline(n_jobs=config.n_jobs) \
            .extract_dataset(scan.dataset)
        training = [f for f in features if f.class_name in known_to_site]
        classifier = FuzzyHashClassifier(n_estimators=60, confidence_threshold=0.55,
                                         random_state=3).fit(training)

        # The allocation is only supposed to run the first known class.
        allocation_classes = [known_to_site[0]]
        print(f"\nallocation 'proj-042' is approved for: {allocation_classes}")
        service = ClassificationService(classifier,
                                        allowed_classes=allocation_classes)

        # Executables observed in the allocation's jobs: a mix of approved
        # software, another preinstalled application, and unknown software.
        observed: list[str] = []
        for class_name in (allocation_classes[0], known_to_site[1], unknown_to_site[0]):
            class_dir = tree / class_name
            version_dir = sorted(p for p in class_dir.iterdir() if p.is_dir())[0]
            observed.extend(str(p) for p in sorted(version_dir.iterdir())[:3])

        print(f"\nclassifying {len(observed)} executables observed in jobs ...\n")
        results = service.classify_paths(observed)
        print(render_report(results))

        flagged = [r for r in results if r.is_suspicious()]
        ok = [r for r in results if r.decision == DECISION_EXPECTED]
        print(f"\n{len(ok)} executables within the allocation purpose, "
              f"{len(flagged)} flagged for review")
        for item in flagged:
            print(f"  -> {item.sample_id}")
            print(f"     predicted: {item.predicted_class} "
                  f"(confidence {item.confidence:.2f}, decision: {item.decision})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
