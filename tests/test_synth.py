import hashlib
import json

import numpy as np
import pytest

from floodpave import deterioration, models, synth
from floodpave.dataset import (
    FEATURE_COLUMNS,
    TARGET_COLUMN,
    describe,
    filter_complete,
    load_csv,
)
from floodpave.floods import (
    apply_maintenance_exclusion,
    extract_windows,
    load_events_csv,
    tag_flooded,
)

from conftest import make_flood_bump_data

FEATS = list(FEATURE_COLUMNS)


class TestGenerate:
    def test_flood_prevalence_matches_fraction(self):
        spec = synth.SynthSpec(n_sections=87, flood_fraction=0.1, seed=4)
        table, events, _ = synth.generate(spec)
        flooded_sections = {
            (k[0], k[1]) for k, f in zip(table.row_keys, table.col("Flood")) if f == 1.0
        }
        assert abs(len(flooded_sections) - round(0.1 * 87)) <= 1

    def test_each_flooded_section_floods_once(self):
        table, events, _ = make_flood_bump_data(n_sections=50, seed=1)
        by_section = {}
        for key, f in zip(table.row_keys, table.col("Flood")):
            if f == 1.0:
                by_section.setdefault((key[0], key[1]), []).append(key[2])
        assert all(len(v) == 1 for v in by_section.values())

    def test_same_seed_byte_identical_csv(self):
        a = synth.records_csv_text(make_flood_bump_data(n_sections=30, seed=9)[0])
        b = synth.records_csv_text(make_flood_bump_data(n_sections=30, seed=9)[0])
        assert a == b

    def test_round_trip_through_loader(self, tmp_path):
        table, events, gt = make_flood_bump_data(n_sections=25, seed=2, noise_std=1.5)
        rp, ep, tp = tmp_path / "r.csv", tmp_path / "e.csv", tmp_path / "t.json"
        synth.write_dataset(table, events, gt, rp, ep, tp)
        loaded = load_csv(rp, schema=FEATS + [TARGET_COLUMN])
        assert loaded.equals(table)
        assert load_events_csv(ep) == events
        doc = json.loads(tp.read_text())
        assert doc["flood_bump"] == 5.0

    def test_flood_column_consistent_with_events(self):
        table, events, _ = make_flood_bump_data(n_sections=60, seed=3)
        retagged, warnings = tag_flooded(table, events)
        assert warnings == []
        assert retagged.equals(table)

    def test_noiseless_linear_truth_is_exactly_learnable(self):
        gt = synth.GroundTruth(
            weights={"TX_TRUCK_AADT_PCT": 0.3, "TX_CONDITION_SCORE": -0.1},
            flood_bump=4.0,
            drift=1.5,
            noise_std=0.0,
        )
        spec = synth.SynthSpec(n_sections=120, flood_fraction=0.2, ground_truth=gt, seed=6)
        table, _, _ = synth.generate(spec)
        complete = filter_complete(table, FEATS + [TARGET_COLUMN])
        X, y = complete.matrix(FEATS), complete.col(TARGET_COLUMN)
        fit = models.fit(models.ModelSpec("linear", {}, 0), X, y, feature_names=FEATS)
        metrics = models.evaluate(fit, X, y)
        assert metrics.r2 == pytest.approx(1.0, abs=1e-9)
        w, _ = fit.raw_coefficients()
        assert np.allclose(w, gt.linear_coefficients(FEATS), atol=1e-6)

    def test_flood_bump_visible_in_window_deltas(self):
        table, events, gt = make_flood_bump_data(n_sections=100, seed=8)
        tagged, _ = tag_flooded(table, events)
        (flooded, _), (control, _) = extract_windows(tagged, events)
        flooded = apply_maintenance_exclusion(flooded)
        control = apply_maintenance_exclusion(control)
        paired = deterioration.flooded_vs_nonflooded(flooded, control)
        assert paired.mean_diff == pytest.approx(gt.flood_bump, abs=1e-9)

    def test_iri_marginal_calibration(self):
        gt = synth.GroundTruth(noise_std=2.0)
        spec = synth.SynthSpec(
            n_sections=5011, year_start=2017, year_end=2018, flood_fraction=0.0,
            ground_truth=gt, seed=0,
        )
        table, _, _ = synth.generate(spec)
        assert table.n_rows == 10022
        stats = describe(table, ["TX_IRI_AVERAGE_SCORE"])["TX_IRI_AVERAGE_SCORE"]
        assert abs(stats.mean - 100.61) < 2.0
        assert abs(stats.std_dev - 54.17) < 5.0

    def test_flood_years_leave_room_for_windows(self):
        table, events, _ = make_flood_bump_data(n_sections=80, seed=10)
        years = [k[2] for k in table.row_keys]
        lo, hi = min(years), max(years)
        for ev in events:
            assert lo + 3 <= ev.flood_year <= hi - 1

    def test_rejects_floods_on_short_panels(self):
        spec = synth.SynthSpec(n_sections=10, year_start=2017, year_end=2018, flood_fraction=0.5)
        with pytest.raises(ValueError, match="span"):
            synth.generate(spec)

    @pytest.mark.parametrize(
        "spec_kwargs, drift, years, initial",
        [
            ({"ground_truth": synth.GroundTruth(drift=40.0)}, "40.0", "2010-2018", "mean -59.39 and SD 10 "),
            ({"year_end": 2060}, "2.0", "2010-2060", "mean 50.61 and SD 45.4722 "),
        ],
    )
    def test_unreachable_initial_iri_is_refused(self, spec_kwargs, drift, years, initial):
        spec = synth.SynthSpec(n_sections=10, flood_fraction=0.0, **spec_kwargs)
        with pytest.raises(ValueError, match="cannot be reached") as info:
            synth.generate(spec)
        message = str(info.value)
        assert f"initial IRI {initial}" in message
        assert "target IRI mean 100.61 and SD 54.17" in message
        assert f"drift {drift} over {years}" in message

    def test_solver_that_cannot_converge_says_so(self):
        # (mean - 26) / SD = 1 + 1e-9: reachable, but the root lies where the
        # ratio's last digits are rounding noise.
        with pytest.raises(ValueError, match="did not converge in 50 Newton steps"):
            synth._initial_iri_params(26.001, 0.001 / (1 + 1e-9))

    def test_floor_too_far_out_is_refused(self):
        # a = 44.6: Phi(-a) underflows to 0, so there is no tail left to invert.
        with pytest.raises(ValueError, match=r"mean 36.005 and SD 10 put the floor 44.6\d SDs above"):
            synth._initial_iri_params(36.005, 10.0)

    def test_every_accepted_floor_draws_at_both_uniform_extremes(self):
        class ExtremeUniforms:
            def uniform(self, size):
                return np.array([0.0, 1.0 - 2.0**-53])

        refused = 0
        for mean in np.linspace(36.0065, 36.0075, 41).tolist():  # floors 36-40 SDs out
            try:
                loc, scale = synth._initial_iri_params(mean, 10.0)
            except ValueError:
                refused += 1
                continue
            lowest, highest = synth._truncated_normal_draws(ExtremeUniforms(), loc, scale, 2)
            assert lowest == pytest.approx(synth._IRI_FLOOR, abs=1e-6)
            assert synth._IRI_FLOOR < highest < np.inf
        assert 0 < refused < 41

    def test_initial_params_hit_the_target_moments(self):
        for target_mean, target_std in [(92.61, 53.92), (84.61, 53.18), (35.0, 8.0), (26.5, 0.45)]:
            loc, scale = synth._initial_iri_params(target_mean, target_std)
            excess, sd, _ = synth._truncated_standard((synth._IRI_FLOOR - loc) / scale)
            assert synth._IRI_FLOOR + scale * excess == pytest.approx(target_mean, rel=1e-12)
            assert scale * sd == pytest.approx(target_std, rel=1e-12)

    def test_ground_truth_attribution_oracle(self):
        gt = synth.GroundTruth(weights={"TX_TRUCK_AADT_PCT": 0.2}, flood_bump=3.0, drift=1.0)
        coefs = gt.linear_coefficients(FEATS)
        assert coefs[FEATS.index("TX_IRI_AVERAGE_SCORE")] == 1.0
        assert coefs[FEATS.index("Flood")] == 3.0
        assert coefs[FEATS.index("TX_TRUCK_AADT_PCT")] == pytest.approx(0.2)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


PINNED_SPECS = {
    # The benchmark's set-up: synth-gen at paper scale on data seed 103.
    "paper_scale": synth.SynthSpec(n_sections=1114, ground_truth=synth.GroundTruth(noise_std=2.0), seed=103),
    # A partial last route (87 = 8 x 10 + 7), weights, an interaction, many floods, no noise.
    "partial_route": synth.SynthSpec(
        n_sections=87,
        flood_fraction=0.3,
        seed=7,
        ground_truth=synth.GroundTruth(
            weights={"TX_TRUCK_AADT_PCT": 0.3, "TX_CONDITION_SCORE": -0.1},
            flood_bump=4.0,
            drift=1.5,
            interactions=(("TX_IRI_AVERAGE_SCORE", "Flood", 1.25),),
        ),
    ),
    # Two panel years and no floods.
    "two_years": synth.SynthSpec(
        n_sections=40, year_start=2017, year_end=2018, flood_fraction=0.0, seed=42,
        ground_truth=synth.GroundTruth(noise_std=1.0),
    ),
}


@pytest.mark.parametrize(
    "name, records, events, truth",
    [
        (
            "paper_scale",
            "6585f878c64419d47160b2b14b3d2f1ef310440ea51ec5d6934d365dc76d0947",
            "e445daabc5d0642b601178b18cde0884d1fa5bef0dd473be129c10aed1596bdc",
            "5ae850997745a777b3e1c74f54ec78b2035df5fa01e41d4c1b8f864b79d38aff",
        ),
        (
            "partial_route",
            "55499550de4de278072a6c78b9c001d91a69d7c77b1f91d2ed596116f133cc29",
            "d55723f057f832bbbb8432de0bd08641c2cd7f35a7a84fb70a7d08b1bfddc7a0",
            "414ae2b50bb8911df28826ed4a65df64b8779a8970fe23b2a1555866af475d8b",
        ),
        (
            "two_years",
            "9a867cffa2e564e9c70e6bc4e60e6c22049fe4ee0273deb52c1ce9a529db1733",
            "c861241cb7ac0443e8b00a7f7fb14eec870f5c479f9a5bdfb710e22d1a50938f",
            "cca95282049687e4284b345d19cd0fab428f97119875bceda00351861548625d",
        ),
    ],
)
def test_output_bytes_are_pinned(name, records, events, truth):
    """sha256 of the three synth-gen files: any change to a draw or a cell's text moves them.

    Recorded with numpy 2.4 on x86-64 Linux; a numpy whose generator, or
    a libm whose erfc, rounds differently may move the last digits.
    """
    table, flood_events, gt = synth.generate(PINNED_SPECS[name])
    assert _sha256(synth.records_csv_text(table)) == records
    assert _sha256(synth.events_csv_text(flood_events)) == events
    assert _sha256(json.dumps(gt.to_dict(), indent=2, sort_keys=True) + "\n") == truth
