"""Golden bytes: the JSON reports at p = 3 and 5, the reports of the
dims checks at p = 7 and 11, the report of the tkk checks at p = 11,
the report of the coord checks at p = 13, the report of the jordan and
tkk checks at p = 7, the whole report at p = 7, the exported tables at
p = 3, and the exported coefficient algebra, double and Cheng-Kac
tables at p = 7.

The p = 3 digests below were taken from the code as it stood before
structure tables were stored as COO arrays (the commit before that
change), the p = 5 report digest from the code before the Leibniz
system was solved block by block, the p = 7 dims digest from the code
before inner derivations and derivation brackets became joins, the
p = 11 dims digest from the code before the Leibniz system was solved by
substitution rounds, the p = 13 coord digest from the code before
the coordinate algebra and the bracket transfer became commutator joins,
the p = 11 tkk digest, which covers F121 in the sl2 bridge and in
der_as_tkk, from the code before the 3-graded layer moved onto the
sparse map engine, and the p = 7 jordan and tkk digest from the code
before the cyclic sums were keyed at sorted triples only, when the
Jacobi sums of the 224-dimensional tables ran in 50 ranges of their
output coordinate and the Jordan sums of J in 18, the p = 7 export
digests from the code before the builders read the table as COO entries
only, when the double and the Cheng-Kac tables were cut from dense
products of p x p x p blocks, and the whole p = 7 report, which pins
the props, s4 and coord groups over F49 too, from the code before the
derivation spaces of K and J_w and the Tits and 3-graded tables were
built over F7 only and lifted to F49, and before the symmetry layer
inverted its signed permutations by transposing them, by running

    python -m ckder verify --p P --format json
    python -m ckder verify --p P --checks dims --format json
    python -m ckder verify --p P --checks tkk --format json
    python -m ckder verify --p P --checks coord --format json
    python -m ckder verify --p P --checks jordan,tkk --format json
    python -m ckder export --p P --algebra A --out FILE

and hashing stdout and FILE.  A change that only reorganises the code
must leave every digest as it is.  A change that means to alter a
report or an export updates the digest here and says why."""

import hashlib

import pytest

from ckder.cli import ALGEBRA_NAMES, main

VERIFY_P3 = "1eb7442d4fba1845fd398255f8197f2f85de117265adc65e057742b722d45122"
VERIFY_P5 = "d9e855c316fb8ec9f4c43cf4546c5528eb2c78eb4f1b7079f8e8f297adff704a"
VERIFY_P7 = "264accc7e81322db971547e2ec1c55e7d5717af183b4f7bdab191332a010c8c8"
VERIFY_P7_DIMS = \
    "1e6832b24b1d56500e4e8aba972893f55a41c3b7b2548a24954dec4e2eb2c6d3"
VERIFY_P11_DIMS = \
    "5ab67a65afe6288aecb933842f32ff514281bf2a597699ec1ec14eb2a6571d39"
VERIFY_P11_TKK = \
    "a5c104981d24af6d3c9c88d2c909b9465eaf13b33433c4a6ba5a9605a0156b72"
VERIFY_P13_COORD = \
    "58c3638088ff5dba11644f1d2c8770e51691b0d45ee1e26481d85805894e9ed6"
VERIFY_P7_JORDAN_TKK = \
    "44143b5ce7a3040425308b8f7881c66828d49d7d3fe2db294d51e092a4c576ae"

EXPORT_P3 = {
    "Z": "28492f25092ccc0797d63551c774ca818c382efec632f9587e37c0064b10f02c",
    "K": "62c610d91325c91f109344a9659e32c7589642a443cddd91bc802c570b40f548",
    "jck_w":
        "64381f90ad21da9160f71ff43053c7c6ccd10e5f6d0abf1cff4da3f00dbbdfa7",
    "jck_v":
        "c6cf41e70408d2450c0702d2954d1513a529524704a2ec83079699ff062beb8c",
    "so3": "7d8de2c3b17db42def03d9559cd4146c1b0b259c55f8e9223b7c20d6ba3f1d21",
    "tkk_K":
        "2c39de20dfa2e5422dfda402e7190449533234e528a5e1c354798f26af46b5f8",
    "ck_lie":
        "22e8c3fe460420360d84f9ef210bc3f93fa91305c020a46ea6e5e790907f0f96",
}

EXPORT_P7 = {
    "Z": "a6ea9f02cc485ac07f3e13cf4ccd566a818b3a73711d7b0d5fdb0cb4804849e0",
    "K": "2e414bddf055bd96ddb674de8059b7eb51ec74ff1c3eb47c3b5f7b27346534b9",
    "jck_w":
        "b778b925ecd969539a3fcf96366e6e7a4d3c5b955aea92e2e43e8f0f42be6533",
    "jck_v":
        "06e3da3910ff6a0bfdd202806155c7e429ce65dfb800b71d7f3027ab870f9b21",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_verify_report_bytes(capsys):
    assert main(["verify", "--p", "3", "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_P3


def test_verify_report_bytes_p5(capsys):
    assert main(["verify", "--p", "5", "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_P5


def test_verify_report_bytes_p7(capsys):
    assert main(["verify", "--p", "7", "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_P7


def test_verify_dims_report_bytes_p7(capsys):
    assert main(["verify", "--p", "7", "--checks", "dims",
                 "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_P7_DIMS


def test_verify_dims_report_bytes_p11(capsys):
    assert main(["verify", "--p", "11", "--checks", "dims",
                 "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_P11_DIMS


def test_verify_tkk_report_bytes_p11(capsys):
    assert main(["verify", "--p", "11", "--checks", "tkk",
                 "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_P11_TKK


def test_verify_coord_report_bytes_p13(capsys):
    assert main(["verify", "--p", "13", "--checks", "coord",
                 "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == VERIFY_P13_COORD


def test_verify_jordan_tkk_report_bytes_p7(capsys):
    assert main(["verify", "--p", "7", "--checks", "jordan,tkk",
                 "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == \
        VERIFY_P7_JORDAN_TKK


def test_every_algebra_name_is_pinned():
    assert sorted(EXPORT_P3) == sorted(ALGEBRA_NAMES)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_export_bytes(tmp_path, name):
    out = tmp_path / f"{name}.json"
    assert main(["export", "--p", "3", "--algebra", name,
                 "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == EXPORT_P3[name]


@pytest.mark.parametrize("name", list(EXPORT_P7))
def test_export_bytes_p7(tmp_path, name):
    out = tmp_path / f"{name}.json"
    assert main(["export", "--p", "7", "--algebra", name,
                 "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == EXPORT_P7[name]
