import csv
from fractions import Fraction

import pytest

from fluctx.cli import _write_tables
from fluctx.observables import parse_polynomial
from fluctx.recursions import MAX_ORDER, b_coeff, big_b_coeff, c_table, d_table

F2 = Fraction


class TestCTable:
    def test_paper_seeds(self):
        t = c_table(4)
        assert t.get(1, 1) == 0
        assert t.get(2, 2) == F2(1, 2)
        assert t.get(2, 2, barred=True) == F2(1, 2)

    def test_hand_derived_entries(self):
        t = c_table(4)
        assert t.get(2, 1) == F2(-3, 4)
        assert t.get(2, 1, barred=True) == F2(3, 4)
        assert t.get(4, 4) == F2(3, 4)
        assert t.get(4, 3) == F2(-15, 8)
        assert t.get(4, 2) == F2(39, 16)
        assert t.get(4, 1) == F2(-87, 32)

    def test_order_three_vanishes(self):
        t = c_table(3)
        for i in (1, 2, 3):
            assert t.get(3, i) == 0
            assert t.get(3, i, barred=True) == 0

    def test_all_odd_orders_vanish(self):
        t = c_table(8)
        for (m, i), v, vbar in t.entries():
            if m % 2 == 1:
                assert v == 0 and vbar == 0

    def test_sign_relation(self):
        # cbar_{m,i} = (-1)^i c_{m,i}
        t = c_table(8)
        for (m, i), v, vbar in t.entries():
            assert vbar == (-1) ** i * v

    def test_convention_outside_triangle(self):
        t = c_table(4)
        assert t.get(0, 0) == 1
        assert t.get(2, 3) == 0
        assert t.get(5, 1) == 0

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            c_table(MAX_ORDER + 1)
        with pytest.raises(ValueError):
            c_table(-1)


class TestDTable:
    def test_seeds(self):
        t = d_table(4)
        assert t.get(0, 0) == 1
        assert t.get(1, 1) == 0
        assert t.get(2, 2) == F2(1, 2)

    def test_zero_column(self):
        t = d_table(6)
        for m in range(1, 7):
            assert t.get(m, 0) == 0
            assert t.get(m, 0, barred=True) == 0

    def test_matches_c_table_entrywise(self):
        assert c_table(8).equals(d_table(8))

    def test_matches_at_full_order(self):
        assert c_table(MAX_ORDER).equals(d_table(MAX_ORDER))

    def test_inequality_detected(self):
        assert not c_table(6).equals(c_table(4))


class TestBCoeff:
    def setup_method(self):
        self.x2 = parse_polynomial("x1^2", 1)
        self.table = c_table(8)

    def test_order_zero(self):
        assert b_coeff(0, self.x2, F2(1, 2), self.table) == 1.0
        x = parse_polynomial("x1", 1)
        assert b_coeff(0, x, F2(3, 4), self.table) == pytest.approx(0.5)

    def test_order_one_always_zero(self):
        for p in (F2(1, 2), F2(1, 3), F2(1)):
            assert b_coeff(1, self.x2, p, self.table) == 0.0

    def test_order_two(self):
        assert b_coeff(2, self.x2, F2(1, 2), self.table) == -1.0

    def test_odd_orders_vanish(self):
        for m in (3, 5, 7):
            assert b_coeff(m, self.x2, F2(1, 2), self.table) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            b_coeff(9, self.x2, F2(1, 2), self.table)
        with pytest.raises(ValueError):
            b_coeff(2, self.x2, 2, self.table)
        with pytest.raises(ValueError):
            b_coeff(2, parse_polynomial("x1*x2", 2), F2(1, 2), self.table)


class TestBigBCoeff:
    def setup_method(self):
        self.x2 = parse_polynomial("x1^2", 1)
        self.table = d_table(8)

    def test_order_zero_is_average(self):
        F = parse_polynomial("x1^3 + x1", 1)  # odd: average of +-1 values is 0
        assert big_b_coeff(0, F, self.table) == 0.0
        assert big_b_coeff(0, self.x2, self.table) == 1.0

    def test_matches_b_with_symmetric_weights(self):
        ctab = c_table(8)
        for m in range(0, 9):
            assert big_b_coeff(m, self.x2, self.table) == pytest.approx(
                b_coeff(m, self.x2, F2(1, 2), ctab), abs=1e-14)

    def test_known_values(self):
        assert big_b_coeff(2, self.x2, self.table) == -1.0
        assert big_b_coeff(4, self.x2, self.table) == -3.0
        assert big_b_coeff(6, self.x2, self.table) == -24.0


class TestDump:
    def test_csv_contains_seed_row(self, tmp_path):
        _write_tables([c_table(8)], tmp_path)
        with open(tmp_path / "tables.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family", "m", "i", "numerator", "denominator"]
        assert ["c", "2", "2", "1", "2"] in rows
        assert ["cbar", "2", "1", "3", "4"] in rows
