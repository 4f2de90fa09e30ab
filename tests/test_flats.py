import pytest

from fareyflats.flats import (
    GeodesicLine,
    LatticeEmbedding,
    SurfaceDesc,
    certify_flat,
    decompose_template,
    default_embedding,
    flat_to_dot,
    max_handles,
    product_distance,
    search_geodesic_line,
    subproduct_total_geodesy,
)
from fareyflats.orbifold import PieceKind
from fareyflats.slopes import Slope, distance


def sl(text):
    return Slope.parse(text)


class TestSurfaceDesc:
    def test_complexity_and_pants_count(self):
        s = SurfaceDesc(2, 0)
        assert s.complexity == 3
        assert s.pants_count == 2

    def test_rejects_complexity_zero(self):
        with pytest.raises(ValueError):
            SurfaceDesc(1, 0)
        with pytest.raises(ValueError):
            SurfaceDesc(0, 3)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            SurfaceDesc(-1, 6)


class TestMaxHandles:
    def test_known_values(self):
        assert max_handles(SurfaceDesc(7, 0)) == 9
        assert max_handles(SurfaceDesc(2, 0)) == 2
        assert max_handles(SurfaceDesc(0, 5)) == 1
        assert max_handles(SurfaceDesc(1, 1)) == 1

    def test_agrees_with_template_piece_count(self):
        for g in range(0, 7):
            for r in range(0, 7):
                if 3 * g - 3 + r < 1:
                    continue
                s = SurfaceDesc(g, r)
                t = decompose_template(s)
                assert t.piece_count == max_handles(s)
                assert t.piece_count == (s.complexity + 1) // 2


class TestTemplate:
    def test_genus_seven_closed(self):
        t = decompose_template(SurfaceDesc(7, 0))
        assert (t.tori, t.spheres, t.has_pants) == (7, 2, True)

    def test_genus_two_closed(self):
        t = decompose_template(SurfaceDesc(2, 0))
        assert (t.tori, t.spheres, t.has_pants) == (2, 0, False)

    def test_genus_one_three_holes(self):
        t = decompose_template(SurfaceDesc(1, 3))
        assert (t.tori, t.spheres, t.has_pants) == (1, 1, False)

    def test_planar_surfaces(self):
        t4 = decompose_template(SurfaceDesc(0, 4))
        assert (t4.tori, t4.spheres, t4.has_pants) == (0, 1, False)
        t5 = decompose_template(SurfaceDesc(0, 5))
        assert (t5.tori, t5.spheres, t5.has_pants) == (0, 1, True)

    def test_piece_kinds_order(self):
        kinds = decompose_template(SurfaceDesc(1, 3)).piece_kinds()
        assert kinds == (
            PieceKind.ONE_HOLED_TORUS,
            PieceKind.FOUR_HOLED_SPHERE,
        )


class TestProductDistance:
    def test_two_factor_instances(self):
        assert product_distance(
            (sl("0/1"), sl("0/1")), (sl("1/0"), sl("1/0"))
        ) == 2
        assert product_distance(
            (sl("0/1"), sl("-1/1")), (sl("1/0"), sl("1/1"))
        ) == 3

    def test_base_marker_matches_anything(self):
        assert product_distance((None, sl("0/1")), (sl("5/2"), sl("0/1"))) == 0
        assert product_distance((None, None), (sl("5/2"), sl("1/0"))) == 0

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            product_distance((sl("0/1"),), (sl("0/1"), sl("0/1")))


class TestGeodesicLine:
    def test_point_indexing(self):
        line = GeodesicLine((sl("1/2"), sl("0/1"), sl("1/0")), base_index=1)
        assert line.lo == -1 and line.hi == 1
        assert line.point(-1) == sl("1/2")
        assert line.point(0) == sl("0/1")
        assert line.point(1) == sl("1/0")
        with pytest.raises(ValueError):
            line.point(2)

    def test_base_index_bounds(self):
        with pytest.raises(ValueError):
            GeodesicLine((sl("0/1"), sl("1/0")), base_index=2)

    def test_integer_ray_is_not_geodesic(self):
        # 0/1 and 3/1 are joined through 1/0 in two steps
        ray = GeodesicLine(
            (sl("0/1"), sl("1/1"), sl("2/1"), sl("3/1")), base_index=0
        )
        ok, witness = ray.check_window()
        assert not ok
        assert witness == (0, 3)
        assert distance(sl("0/1"), sl("3/1")) == 2

    def test_json_dict(self):
        line = GeodesicLine((sl("1/2"), sl("0/1"), sl("1/0")), base_index=1)
        assert line.to_json_dict() == {
            "slopes": ["1/2", "0/1", "1/0"],
            "base_index": 1,
        }


class TestSearch:
    def test_search_produces_checked_window(self):
        line = search_geodesic_line(3, (sl("0/1"), sl("1/0")))
        assert len(line.slopes) == 7
        ok, _ = line.check_window()
        assert ok

    def test_rejects_non_edge_seed(self):
        with pytest.raises(ValueError):
            search_geodesic_line(2, (sl("0/1"), sl("2/1")))

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError, match="rank must be positive"):
            default_embedding(0)

    def test_shipped_lines_are_geodesic(self):
        for n in (1, 2, 3):
            emb = default_embedding(n)
            assert emb.rank == n
            for line in emb.lines:
                ok, witness = line.check_window()
                assert ok, witness


class TestCertifyFlat:
    def test_rank_one_window_four(self):
        report = certify_flat(default_embedding(1), window=4)
        assert report["passed"]
        assert report["witness"] is None
        assert report["pairs_checked"] == 9 * 8 // 2

    def test_rank_two_window_three(self):
        report = certify_flat(default_embedding(2), window=3)
        assert report["passed"]
        assert report["pairs_checked"] == 49 * 48 // 2

    def test_bad_factor_is_caught_before_pair_sweep(self):
        ray = GeodesicLine(
            tuple(Slope(k, 1) for k in range(-5, 6)), base_index=5
        )
        emb = LatticeEmbedding((default_embedding(1).lines[0], ray))
        report = certify_flat(emb, window=4)
        assert not report["passed"]
        bad = report["factor_reports"][1]
        assert bad["geodesic"] is False
        assert bad["witness"] is not None
        lo, hi = bad["witness"]
        gap = hi - lo
        assert distance(ray.point(lo), ray.point(hi)) < gap

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window must be positive"):
            certify_flat(default_embedding(1), window=0)

    def test_map_point_rejects_the_wrong_rank(self):
        emb = default_embedding(2)
        assert len(emb.map_point((0, 1))) == 2
        with pytest.raises(ValueError, match="wrong rank"):
            emb.map_point((0, 1, 2))

    def test_window_larger_than_line_rejected(self):
        with pytest.raises(ValueError):
            certify_flat(default_embedding(1), window=40)

    def test_pair_witness_is_the_first_failing_pair(self, monkeypatch):
        # With the factor check bypassed, the pair sweep itself must stop at
        # the first non-isometric pair in lattice order, as a plain loop does.
        monkeypatch.setattr(GeodesicLine, "check_window", lambda self: (True, None))
        ray = GeodesicLine(tuple(Slope(k, 1) for k in range(-5, 6)), base_index=5)
        emb = LatticeEmbedding((default_embedding(1).lines[0], ray))
        window = 3
        report = certify_flat(emb, window)
        points = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        pairs = 0
        for i, x in enumerate(points):
            for y in points[i + 1 :]:
                pairs += 1
                want = sum(abs(s - t) for s, t in zip(x, y))
                got = product_distance(emb.map_point(x), emb.map_point(y))
                if got != want:
                    break
            else:
                continue
            break
        assert not report["passed"]
        assert report["pairs_checked"] == pairs
        assert report["witness"] == {
            "x": list(x), "y": list(y), "expected": want, "actual": got
        }


class TestSubproduct:
    def test_factor_subgraph_is_totally_geodesic(self):
        report = subproduct_total_geodesy(n=2, k=1, radius=3)
        assert report["totally_geodesic"]
        assert report["witness"] is None
        assert report["member_count"] > 1

    def test_diagonal_control_fails_with_witness(self):
        report = subproduct_total_geodesy(
            n=2, k=1, radius=3, subgraph="diagonal"
        )
        assert not report["totally_geodesic"]
        w = report["witness"]
        u = tuple(sl(s) for s in w["u"])
        v = tuple(sl(s) for s in w["v"])
        via = tuple(sl(s) for s in w["via"])
        assert via[0] != via[1]
        assert (
            product_distance(u, via) + product_distance(via, v)
            == product_distance(u, v)
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            subproduct_total_geodesy(n=2, k=3, radius=2)
        with pytest.raises(ValueError):
            subproduct_total_geodesy(n=2, k=1, radius=2, subgraph="mystery")


class TestDot:
    def test_rank_one_grid(self):
        dot = flat_to_dot(default_embedding(1), window=1)
        assert dot.count("--") == 2
        assert dot.count("label=") == 3

    def test_rank_two_grid(self):
        dot = flat_to_dot(default_embedding(2), window=1)
        # 3x3 grid: 9 nodes, 12 edges
        assert dot.count("label=") == 9
        assert dot.count("--") == 12
        assert '"p0_0"' in dot
