"""Tests for the CNF container and DIMACS I/O."""

from array import array

import pytest

from repro.sat.cnf import Cnf, is_negative, lit_of, var_of


class TestLiterals:
    def test_lit_of(self):
        assert lit_of(3) == 3
        assert lit_of(3, positive=False) == -3

    def test_lit_of_rejects_nonpositive_var(self):
        with pytest.raises(ValueError):
            lit_of(0)

    def test_var_of(self):
        assert var_of(-7) == 7
        assert var_of(7) == 7

    def test_var_of_zero(self):
        with pytest.raises(ValueError):
            var_of(0)

    def test_is_negative(self):
        assert is_negative(-1)
        assert not is_negative(1)


class TestCnf:
    def test_new_var_counts_up(self):
        cnf = Cnf()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.new_vars(3) == [3, 4, 5]

    def test_add_clause_extends_var_count(self):
        cnf = Cnf()
        cnf.add_clause([1, -9])
        assert cnf.n_vars == 9
        assert cnf.n_clauses == 1

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Cnf().add_clause([1, 0])
        with pytest.raises(ValueError):
            Cnf().add_units([1, 0])

    def test_clauses_live_in_one_flat_stream(self):
        cnf = Cnf()
        cnf.add_clause([1, -2])
        cnf.add_units([3, -4])
        cnf.add_clause([])
        assert cnf.lits == array("i", [1, -2, 0, 3, 0, -4, 0, 0])
        assert cnf.n_clauses == 4
        assert cnf.n_vars == 4
        assert cnf.clauses == ((1, -2), (3,), (-4,), ())

    def test_clauses_view_is_read_only(self):
        cnf = Cnf()
        cnf.add_clause([1])
        with pytest.raises(AttributeError):
            cnf.clauses = ((2,),)
        with pytest.raises(AttributeError):
            cnf.clauses.append((2,))

    def test_extend(self):
        a = Cnf()
        a.add_clause([1, 2])
        b = Cnf()
        b.add_clause([-3])
        a.extend(b)
        assert a.n_clauses == 2
        assert a.n_vars == 3

    def test_evaluate(self):
        cnf = Cnf()
        cnf.add_clause([1, -2])
        cnf.add_clause([2, 3])
        assert cnf.evaluate([0, 1, 0, 1])  # x1=1 sat c1; x3=1 sat c2
        assert not cnf.evaluate([0, 0, 1, 0])  # c1 fails (x1=0, x2=1)

    def test_dimacs_roundtrip(self):
        cnf = Cnf()
        cnf.add_clause([1, -2, 3])
        cnf.add_clause([-1])
        text = cnf.to_dimacs()
        parsed = Cnf.from_dimacs(text)
        assert parsed.n_vars == cnf.n_vars
        assert parsed.clauses == cnf.clauses

    def test_dimacs_ignores_comments(self):
        parsed = Cnf.from_dimacs("c a comment\np cnf 3 1\n1 -3 0\n")
        assert parsed.n_vars == 3
        assert parsed.clauses == ((1, -3),)

    def test_dimacs_bad_header(self):
        with pytest.raises(ValueError):
            Cnf.from_dimacs("p sat 3 1\n1 0\n")

    def test_save_load(self, tmp_path):
        cnf = Cnf()
        cnf.add_clause([2, -1])
        path = tmp_path / "f.cnf"
        cnf.save(path)
        assert Cnf.load(path).clauses == cnf.clauses

    def test_save_load_keeps_the_stream_bytes(self, tmp_path):
        cnf = Cnf(12)
        cnf.add_clause([2, -1, 7])
        cnf.add_units([-5, 9])
        cnf.add_clause([])
        path = tmp_path / "f.cnf"
        cnf.save(path)
        loaded = Cnf.load(path)
        assert loaded.lits.tobytes() == cnf.lits.tobytes()
        assert (loaded.n_vars, loaded.n_clauses) == (12, 4)


class TestDimacsParser:
    def test_clauses_may_share_a_line(self):
        assert Cnf.from_dimacs("1 -2 0 3 0").clauses == ((1, -2), (3,))

    def test_clauses_may_span_lines(self):
        parsed = Cnf.from_dimacs("p cnf 3 1\n1 -2\n3 0\n")
        assert parsed.clauses == ((1, -2, 3),)

    def test_unterminated_last_clause_is_rejected(self):
        with pytest.raises(ValueError, match="not terminated"):
            Cnf.from_dimacs("1 -2 0\n3\n")

    def test_clause_count_must_match_the_header(self):
        with pytest.raises(ValueError, match="declares 5 clauses"):
            Cnf.from_dimacs("p cnf 3 5\n1 2 0\n")

    def test_header_vars_beyond_the_clauses_are_kept(self):
        parsed = Cnf.from_dimacs("p cnf 9 1\n1 2 0\n")
        assert (parsed.n_vars, parsed.n_clauses) == (9, 1)

    def test_second_problem_line_is_rejected(self):
        with pytest.raises(ValueError, match="bad problem line"):
            Cnf.from_dimacs("p cnf 2 1\np cnf 2 1\n1 2 0\n")
