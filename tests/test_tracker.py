import numpy as np
import pytest

from fiberwatch.errors import ConfigurationError, MissingDataError
from fiberwatch.siggen import GroundTruthEvent
from fiberwatch.tracker import (CalibrationTable, DecisionMap, ErrorBudget,
                                SignalEventTrack, apply_error_budget,
                                build_decision_map, calibrate_budget,
                                glue_tracks, rasterize_tracks,
                                track_matches_event)


def scores_from_decisions(decisions, confidence=0.9):
    """Score grid whose threshold decisions reproduce ``decisions``."""
    n, l = decisions.shape
    scores = np.zeros((n, l, 7))
    rest = (1.0 - confidence) / 6.0
    scores[...] = rest
    for c in range(7):
        mask = decisions == c
        scores[mask, c] = confidence
    return scores


def flood_fill_tracks(decisions, scores, gap, width, min_duration, min_area):
    """Independent oracle: rectangular max-filter dilation + 4-neighbor BFS."""
    n, l = decisions.shape
    out = []
    for class_id in range(1, 7):
        mask = decisions == class_id
        dil = np.zeros_like(mask)
        for i in range(n):
            for j in range(l):
                if not mask[i, j]:
                    continue
                i0, i1 = max(0, i - gap), min(n, i + gap + 1)
                j0, j1 = max(0, j - width), min(l, j + width + 1)
                dil[i0:i1, j0:j1] = True
        seen = np.zeros_like(dil)
        for i in range(n):
            for j in range(l):
                if not dil[i, j] or seen[i, j]:
                    continue
                stack, comp = [(i, j)], []
                seen[i, j] = True
                while stack:
                    a, b = stack.pop()
                    comp.append((a, b))
                    for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        x, y = a + da, b + db
                        if 0 <= x < n and 0 <= y < l and dil[x, y] and not seen[x, y]:
                            seen[x, y] = True
                            stack.append((x, y))
                cells = [(a, b) for a, b in comp if mask[a, b]]
                if not cells:
                    continue
                frames = [a for a, _ in cells]
                chans = [b for _, b in cells]
                n_b, n_e = min(frames), max(frames)
                if n_e - n_b + 1 < min_duration or len(cells) < min_area:
                    continue
                conf = float(np.mean([scores[a, b, class_id] for a, b in cells]))
                out.append(SignalEventTrack(class_id, n_b, n_e, min(chans),
                                            max(chans), int(np.median(chans)),
                                            conf, len(cells)))
    out.sort(key=lambda t: (t.class_id, t.frame_begin, t.chan_lo))
    return out


class TestBuildDecisionMap:
    def test_background_scores_give_zero_map(self):
        scores = np.zeros((6, 4, 7))
        scores[..., 0] = 1.0
        dmap = build_decision_map(scores, np.full(7, 0.5))
        assert np.all(dmap.decisions == 0)

    def test_confident_block_survives(self):
        decisions = np.zeros((20, 8), dtype=int)
        decisions[10:16, 5:8] = 6
        dmap = build_decision_map(scores_from_decisions(decisions), np.full(7, 0.5))
        assert np.array_equal(dmap.decisions, decisions)

    def test_below_threshold_falls_back_to_zero(self):
        decisions = np.zeros((4, 4), dtype=int)
        decisions[1, 1] = 3
        scores = scores_from_decisions(decisions, confidence=0.4)
        dmap = build_decision_map(scores, np.full(7, 0.5))
        assert np.all(dmap.decisions == 0)

    def test_cells_always_in_class_range(self, rng):
        scores = rng.dirichlet(np.ones(7), size=(30, 10))
        dmap = build_decision_map(scores, rng.uniform(0.1, 0.9, 7))
        assert dmap.decisions.min() >= 0 and dmap.decisions.max() <= 6

    def test_scores_retained(self):
        decisions = np.zeros((3, 3), dtype=int)
        scores = scores_from_decisions(decisions)
        dmap = build_decision_map(scores, np.full(7, 0.5))
        assert np.array_equal(dmap.scores, scores)

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            build_decision_map(np.zeros((4, 4, 5)), np.full(7, 0.5))

    def test_matches_per_cell_threshold_rule(self, rng):
        from fiberwatch.ensemble import threshold_decide
        scores = rng.dirichlet(np.ones(7), size=(15, 9))
        alpha = rng.uniform(0.1, 0.9, 7)
        dmap = build_decision_map(scores, alpha)
        for n in range(15):
            for l in range(9):
                assert dmap.decisions[n, l] == threshold_decide(scores[n, l], alpha)


class TestGlueTracks:
    def test_solid_block_single_track(self):
        decisions = np.zeros((40, 12), dtype=int)
        decisions[10:21, 5:8] = 6
        dmap = build_decision_map(scores_from_decisions(decisions), np.full(7, 0.5))
        tracks = glue_tracks(dmap, gap=2, width=2, min_duration=3)
        assert len(tracks) == 1
        t = tracks[0]
        assert (t.class_id, t.frame_begin, t.frame_end) == (6, 10, 20)
        assert (t.chan_lo, t.chan_hi, t.center_channel) == (5, 7, 6)
        assert t.mean_confidence == pytest.approx(0.9)

    def test_isolated_cell_below_min_duration_dropped(self):
        decisions = np.zeros((30, 6), dtype=int)
        decisions[4, 2] = 5
        dmap = build_decision_map(scores_from_decisions(decisions), np.full(7, 0.5))
        assert glue_tracks(dmap, gap=0, width=0, min_duration=3) == []

    def test_gap_merges_blocks(self):
        decisions = np.zeros((40, 4), dtype=int)
        decisions[5:10, 1:3] = 2
        decisions[12:17, 1:3] = 2     # 2-frame gap
        dmap = build_decision_map(scores_from_decisions(decisions), np.full(7, 0.5))
        merged = glue_tracks(dmap, gap=2, width=0, min_duration=3)
        assert len(merged) == 1
        assert (merged[0].frame_begin, merged[0].frame_end) == (5, 16)
        split = glue_tracks(dmap, gap=0, width=0, min_duration=3)
        assert len(split) == 2

    def test_distinct_classes_stay_separate(self):
        decisions = np.zeros((30, 6), dtype=int)
        decisions[5:12, 0:2] = 2
        decisions[5:12, 4:6] = 3
        dmap = build_decision_map(scores_from_decisions(decisions), np.full(7, 0.5))
        tracks = glue_tracks(dmap, gap=2, width=2, min_duration=3)
        assert sorted(t.class_id for t in tracks) == [2, 3]

    @pytest.mark.parametrize("gap,width,min_dur,min_area", [
        (0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 2), (3, 1, 1, 4),
    ])
    def test_randomized_maps_match_flood_fill_oracle(self, gap, width, min_dur,
                                                     min_area):
        rng = np.random.default_rng(gap * 7 + width * 3 + min_dur)
        for _ in range(15):
            decisions = rng.choice(7, size=(24, 10),
                                   p=[0.82, 0.03, 0.03, 0.03, 0.03, 0.03, 0.03])
            scores = scores_from_decisions(decisions)
            dmap = build_decision_map(scores, np.full(7, 0.5))
            got = glue_tracks(dmap, gap, width, min_dur, min_area)
            want = flood_fill_tracks(dmap.decisions, scores, gap, width,
                                     min_dur, min_area)
            assert got == want

    def test_large_map_many_components_match_flood_fill_oracle(self):
        rng = np.random.default_rng(2024)
        decisions = rng.choice(7, size=(120, 80),
                               p=[0.97, 0.005, 0.005, 0.005, 0.005, 0.005, 0.005])
        decisions[0, :3] = 1            # components on every edge and corner
        decisions[-2:, 40] = 2
        decisions[60:63, 0] = 3
        decisions[10, -1] = 4
        decisions[-1, -1] = 5
        scores = scores_from_decisions(decisions)
        dmap = build_decision_map(scores, np.full(7, 0.5))
        got = glue_tracks(dmap, gap=1, width=1, min_duration=1, min_area=1)
        assert got == flood_fill_tracks(dmap.decisions, scores, 1, 1, 1, 1)
        assert len(got) >= 100
        assert any(t.frame_begin == 0 for t in got)
        assert any(t.frame_end == 119 for t in got)
        assert any(t.chan_lo == 0 for t in got)
        assert any(t.chan_hi == 79 for t in got)

    def test_bounds_never_exceed_map(self, rng):
        decisions = rng.choice(7, size=(20, 8))
        dmap = build_decision_map(scores_from_decisions(decisions), np.full(7, 0.5))
        for t in glue_tracks(dmap, gap=3, width=3, min_duration=1):
            assert 0 <= t.frame_begin <= t.frame_end < 20
            assert 0 <= t.chan_lo <= t.chan_hi < 8

    def test_idempotent_with_zero_dilation(self, rng):
        # rectangles far apart: re-gluing the rasterized tracks is stable
        decisions = np.zeros((50, 16), dtype=int)
        decisions[3:9, 1:4] = 2
        decisions[20:30, 6:9] = 4
        decisions[40:46, 12:15] = 2
        dmap = build_decision_map(scores_from_decisions(decisions), np.full(7, 0.5))
        tracks = glue_tracks(dmap, gap=0, width=0, min_duration=1)
        again = glue_tracks(rasterize_tracks(tracks, dmap.shape),
                            gap=0, width=0, min_duration=1)
        assert len(tracks) == len(again)
        for a, b in zip(tracks, again):
            assert (a.class_id, a.frame_begin, a.frame_end, a.chan_lo, a.chan_hi,
                    a.center_channel, a.cell_count) == \
                   (b.class_id, b.frame_begin, b.frame_end, b.chan_lo, b.chan_hi,
                    b.center_channel, b.cell_count)
            assert a.mean_confidence == pytest.approx(b.mean_confidence, abs=1e-12)

    def test_negative_parameters_rejected(self):
        dmap = build_decision_map(np.zeros((4, 4, 7)), np.full(7, 0.5))
        with pytest.raises(ConfigurationError):
            glue_tracks(dmap, gap=-1)


def make_track(class_id, begin, end, conf, chan=(0, 2)):
    return SignalEventTrack(class_id, begin, end, chan[0], chan[1],
                            (chan[0] + chan[1]) // 2, conf, (end - begin + 1) * 3)


class TestErrorBudget:
    def setup_method(self):
        self.truth = [GroundTruthEvent(3, 10, 20, 0, 2),
                      GroundTruthEvent(5, 40, 50, 0, 2)]
        self.tracks = [
            make_track(3, 11, 19, 0.95),     # true positive
            make_track(5, 41, 49, 0.80),     # true positive
            make_track(2, 60, 65, 0.60),     # false alarm
            make_track(6, 70, 75, 0.30),     # false alarm
        ]
        self.table = calibrate_budget(self.tracks, self.truth)

    def test_calibration_rates_monotone(self):
        assert np.all(np.diff(self.table.alpha_hat) <= 1e-12)
        assert np.all(np.diff(self.table.beta_hat) >= -1e-12)

    def test_permissive_budget_admits_everything(self):
        budget = ErrorBudget(alpha=1.0 - 1e-9, beta=1.0 - 1e-9)
        reports = apply_error_budget(self.tracks, budget, self.table)
        assert all(r.admitted for r in reports)

    def test_tight_alpha_keeps_only_confident(self):
        budget = ErrorBudget(alpha=1e-6, beta=0.999)
        reports = apply_error_budget(self.tracks, budget, self.table)
        admitted = [r.track for r in reports if r.admitted]
        assert all(t.mean_confidence >= 0.80 for t in admitted)
        assert not any(t.class_id in (2, 6) for t in admitted)

    def test_monotone_nesting_over_alpha_sweep(self):
        previous = None
        for alpha in np.linspace(1e-6, 1.0 - 1e-6, 25):
            reports = apply_error_budget(self.tracks, ErrorBudget(alpha, 0.5),
                                         self.table)
            admitted = {id(r.track) for r in reports if r.admitted}
            if previous is not None:
                assert previous <= admitted
            previous = admitted

    def test_empty_track_list_empty_report(self):
        budget = ErrorBudget(alpha=0.5, beta=0.5)
        assert apply_error_budget([], budget, self.table) == []

    def test_missing_calibration_rejected(self):
        with pytest.raises(MissingDataError):
            apply_error_budget(self.tracks, ErrorBudget(0.5, 0.5), None)

    def test_calibration_round_trips_json(self):
        back = CalibrationTable.from_json(self.table.to_json())
        assert np.array_equal(back.thresholds, self.table.thresholds)
        assert np.array_equal(back.alpha_hat, self.table.alpha_hat)

    def test_budget_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            ErrorBudget(alpha=0.0, beta=0.5)

    def test_track_event_matching(self):
        track = make_track(3, 11, 19, 0.9)
        assert track_matches_event(track, self.truth[0])
        assert not track_matches_event(track, self.truth[1])
