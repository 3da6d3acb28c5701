"""ROC / AUC tests against rank-statistic and all-thresholds oracles."""

import re
from xml.etree import ElementTree

import numpy as np
import pytest

import hsidet as h


def mann_whitney_auc(scores, labels):
    """Normalized rank-sum statistic with midpoint handling of ties."""
    t = scores[labels == 1]
    b = scores[labels == 0]
    greater = (t[:, None] > b[None, :]).sum()
    equal = (t[:, None] == b[None, :]).sum()
    return (greater + 0.5 * equal) / (t.size * b.size)


def all_thresholds_roc(scores, labels):
    """Brute-force (far, pd) set: one point per distinct score plus the origin."""
    pts = {(0.0, 0.0)}
    n_t = labels.sum()
    n_b = labels.size - n_t
    for thr in np.unique(scores):
        det = scores >= thr
        pts.add((float((det & (labels == 0)).sum() / n_b),
                 float((det & (labels == 1)).sum() / n_t)))
    return pts


def random_case(rng, n=40):
    scores = rng.normal(size=n)
    labels = np.zeros(n, dtype=int)
    labels[rng.permutation(n)[: rng.integers(1, n - 1)]] = 1
    return scores, labels


def as_maps(scores, labels, width):
    height = scores.size // width
    return (h.ScoreMap(scores.reshape(height, width)),
            h.GroundTruthMask(labels.reshape(height, width)))


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.8], [0.1, 0.2]])
        labels = np.array([[1, 1], [0, 0]])
        curve = h.roc(h.ScoreMap(scores), h.GroundTruthMask(labels))
        assert (0.0, 1.0) in set(zip(curve.far, curve.pd))
        assert abs(h.auc(curve) - 1.0) < 1e-12

    def test_label_scores_give_hard_corner_curve(self):
        scores = np.array([[1.0, 0.0, 1.0, 0.0]])
        labels = np.array([[1, 0, 1, 0]])
        curve = h.roc(h.ScoreMap(scores), h.GroundTruthMask(labels))
        assert np.array_equal(curve.far, [0.0, 0.0, 1.0])
        assert np.array_equal(curve.pd, [0.0, 1.0, 1.0])
        assert curve.thresholds[0] == np.inf

    def test_six_pixel_hand_case_matches_all_thresholds_oracle(self):
        scores = np.array([0.9, 0.4, 0.7, 0.4, 0.2, 0.8])
        labels = np.array([1, 0, 1, 1, 0, 0])
        smap, mask = as_maps(scores, labels, 3)
        curve = h.roc(smap, mask)
        assert set(zip(curve.far, curve.pd)) == all_thresholds_roc(scores, labels)
        assert abs(h.auc(curve) - mann_whitney_auc(scores, labels)) < 1e-12

    def test_curve_endpoints(self):
        rng = np.random.default_rng(0)
        scores, labels = random_case(rng)
        curve = h.roc(*as_maps(scores, labels, 8))
        assert curve.far[0] == 0.0 and curve.pd[0] == 0.0
        assert curve.far[-1] == 1.0 and curve.pd[-1] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            h.roc(h.ScoreMap(np.zeros((2, 2))), h.GroundTruthMask(np.ones((3, 2), dtype=int)))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            h.roc(h.ScoreMap(np.zeros((2, 2))),
                  h.GroundTruthMask(np.ones((2, 2), dtype=int)))


class TestAuc:
    def test_matches_rank_statistic_many_seeds(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            scores, labels = random_case(rng)
            if seed % 3 == 0:
                scores = np.round(scores, 1)  # inject ties
            got = h.auc(h.roc(*as_maps(scores, labels, 8)))
            assert abs(got - mann_whitney_auc(scores, labels)) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores, labels = random_case(rng)
        base = h.auc(h.roc(*as_maps(scores, labels, 8)))
        for f in (np.exp, lambda s: 3 * s + 7, np.arctan):
            assert abs(h.auc(h.roc(*as_maps(f(scores), labels, 8))) - base) < 1e-12

    def test_negation_complements(self):
        rng = np.random.default_rng(2)
        scores, labels = random_case(rng)
        a = h.auc(h.roc(*as_maps(scores, labels, 8)))
        b = h.auc(h.roc(*as_maps(-scores, labels, 8)))
        assert abs(a + b - 1.0) < 1e-12

    def test_random_scores_near_half(self):
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            scores = rng.normal(size=400)
            labels = np.zeros(400, dtype=int)
            labels[rng.permutation(400)[:40]] = 1
            vals.append(h.auc(h.roc(*as_maps(scores, labels, 20))))
        assert abs(np.mean(vals) - 0.5) < 0.05


class TestCompare:
    def test_sorted_by_auc_descending(self):
        rng = np.random.default_rng(3)
        labels = np.zeros(100, dtype=int)
        labels[:10] = 1
        good = labels + rng.normal(0, 0.1, 100)
        bad = rng.normal(size=100)
        mask = h.GroundTruthMask(labels.reshape(10, 10))
        rows = h.compare(
            [("bad", h.ScoreMap(bad.reshape(10, 10))),
             ("good", h.ScoreMap(good.reshape(10, 10)))],
            mask,
        )
        assert [r[0] for r in rows] == ["good", "bad"]
        assert rows[0][1] >= rows[1][1]

    def test_tie_broken_by_name(self):
        labels = np.array([[1, 0], [0, 1]])
        smap = h.ScoreMap(np.array([[0.9, 0.1], [0.2, 0.8]]))
        rows = h.compare([("zeta", smap), ("alpha", smap)], h.GroundTruthMask(labels))
        assert [r[0] for r in rows] == ["alpha", "zeta"]

    def test_write_comparison_outputs(self, tmp_path):
        labels = np.array([[1, 0], [0, 1]])
        smap = h.ScoreMap(np.array([[0.9, 0.1], [0.2, 0.8]]))
        rows = h.compare([("m", smap)], h.GroundTruthMask(labels))
        h.write_comparison(rows, str(tmp_path))
        assert (tmp_path / "auc.csv").read_text().splitlines()[0] == "method,auc"
        assert (tmp_path / "roc_m.csv").exists()
        assert (tmp_path / "roc.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("name", ["\u00e9", "", "a,b", "a/b"])
    def test_bad_name_rejected_before_anything_is_written(self, tmp_path, name):
        labels = np.array([[1, 0], [0, 1]])
        smap = h.ScoreMap(np.array([[0.9, 0.1], [0.2, 0.8]]))
        rows = h.compare([("m", smap), (name, smap)], h.GroundTruthMask(labels))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^score map name {re.escape(repr(name))} is empty, "
                                             "not ASCII or contains ',' or '/'$"):
            h.write_comparison(rows, str(out))
        assert not out.exists()

    def test_svg_is_well_formed_for_any_name(self, tmp_path):
        labels = np.array([[1, 0], [0, 1]])
        smap = h.ScoreMap(np.array([[0.9, 0.1], [0.2, 0.8]]))
        rows = h.compare([("a&b<c>", smap)], h.GroundTruthMask(labels))
        h.write_comparison(rows, str(tmp_path))
        root = ElementTree.parse(tmp_path / "roc.svg").getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["a&b<c> (1.0000)"]

    def test_roc_csv_round_trips_curve(self, tmp_path):
        rng = np.random.default_rng(4)
        scores, labels = random_case(rng)
        smap, mask = as_maps(scores, labels, 8)
        rows = h.compare([("m", smap)], mask)
        h.write_comparison(rows, str(tmp_path))
        lines = (tmp_path / "roc_m.csv").read_text().splitlines()[1:]
        far = np.array([float(l.split(",")[1]) for l in lines])
        pd = np.array([float(l.split(",")[2]) for l in lines])
        curve = rows[0][2]
        assert np.array_equal(far, curve.far)
        assert np.array_equal(pd, curve.pd)
