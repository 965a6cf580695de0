"""Exact outputs pinned where the benchmark does not reach: SHA-256
digests of `--format json` stdout for the non-elementary abelian groups,
whose characters restrict through cyclic factors of order above p (at
levels 1-3 for `localize`), and for `tv` (at ranks 1 and 0) and `nil` on
the module files; `tv --rank 2` on the elementary abelian groups of
rank 3, whose 729 and 64 classes each take a centralizer ring; `quillen-check` past the
default cutoff, on a rank-4 group and where the p-torsion subgroup is
trivial, as TSV, and at p = 11, where residues have two digits;
`localize` at rank 3 and 4 past the default cutoff, where most objects
lie below the top subgroup, and on the widest equalizers, level 4 on
(Z/2)^4 and (Z/5)^3 and level 3 on (Z/3)^4; the rank-5
and rank-4 subspace lattices of (Z/2)^5 under `localize` and of (Z/3)^4
under `quillen-check`; `reps` on the nonabelian catalog groups at rank 3
and on S7 at ranks 2 and 3, where conjugation moves most tuples;
the `d0` bound report and two `act` runs in high degree, which have no
JSON form, as plain text; and every nonzero action matrix of the
catalog rings of rank <= 4 from source degrees <= 12.  A change that
moves any output byte fails here."""

import hashlib
import json

import pytest

from chowops.chow import elem_abelian_ring, ring_module
from chowops.cli import main
from chowops.modules import FPModule, compile_presentation

GROUP_RUNS = {
    ("tv", "z4xz2", 2):
        "e34c316b4bec82a12993067237cf31e8dc0bd1322cbd74184db901022022594a",
    ("quillen-check", "z4xz2", 2):
        "a156961916c1e6bcb8d3457350bba769da47cfb249d0bd63f3face58fb8676e0",
    ("localize", "z4xz2", 2):
        "61f770d1264efb5051eaaf0293f401d4a28db3aa87f3ac419279166f6c0d5d96",
    ("tv", "z4xz2", 3):
        "16ad51661b519db34f6b137a13243578666b49035e4b1a584b658b38620263cb",
    ("quillen-check", "z4xz2", 3):
        "f2dac71d0564fb7d7ea8f1d2f52bc39c71cebc359f164efffe878b50569e171d",
    ("localize", "z4xz2", 3):
        "d150c7bbb8a364191521636c4d15c18d54845c5ebc4c16a3b9eebefe8c977ce2",
    ("tv", "z9xz3", 2):
        "b552da94c75fee0505fab189e549cf967037a6c49a4f75ae40f95792d76395e0",
    ("quillen-check", "z9xz3", 2):
        "06cb529c3df81fcc94632ce8125b1fcc93b65cd16934ca421fcccd1c3aef6798",
    ("localize", "z9xz3", 2):
        "b03a6575b51b61efc1c757fa98c965d7616d7e16b2ec89201c4f353aa75c87c7",
    ("tv", "z9xz3", 3):
        "669decc76188b981f55cfb488f9a548789e9e6de1809876e3e5ba79b04ee0d9b",
    ("quillen-check", "z9xz3", 3):
        "02e2b666927c2e618f55485faeb9d14d918a0c92d7e26835d4be7d6b820d9918",
    ("localize", "z9xz3", 3):
        "1cb1f48e6c28805c8bc3a94056dfa40ec929f98ef90dbb761116e7f221660952",
    ("tv", "z8", 2):
        "0731d4ab9ddf4fe9744576cb9ed28b4aa42d1c6e472474c561319b19807d0ca0",
    ("quillen-check", "z8", 2):
        "2e75c507853e42376d50ba6f170d7bd759693d1180c90a5cd89532069fec1798",
    ("localize", "z8", 2):
        "26beed79f952211214e09cfaf439479a3c66c8ce009af7517305a17a23536a5d",
    ("tv", "z8", 3):
        "8532c2659c4a5c3800d805727064b8a9836761c83f3b8c8ca1a0c16e04645d4d",
    ("quillen-check", "z8", 3):
        "ff75e714b816bb872f398389227a518714153edaf480ed5160bd801be91a27e7",
    ("localize", "z8", 3):
        "5f257c96425177c9ae2a537e4c4ffd42e6de9df3ab84329db836f1d40e34d2ae",
    ("tv", "z12", 2):
        "39f97ccb0cb73cffbc15e4f30e9dfd37d825c15fd1f8fdc63796c5577d6284ad",
    ("quillen-check", "z12", 2):
        "7b3ef42811c2ceeef4658652d947debe8458a6225428074f9d87788014521623",
    ("localize", "z12", 2):
        "5d4f6e6ca1f8d94f2f41da1203dda5d526b4762c0c275f3e50af3d100e192fea",
    ("tv", "z12", 3):
        "9d19e7dc7f8841b96f36c924bdd0b77e69bfabca39ec8443a3bb7cddbe3890fc",
    ("quillen-check", "z12", 3):
        "c6335617519ace2950c66604e6a452c9b70e73d666f5905d962856273adcc7f8",
    ("localize", "z12", 3):
        "ed5cdd05c177e82e6cc6fb8af28b70ff65e8017cf9fd6535e5eb86353877f9a0",
}

# tv --rank 2 on the elementary abelian groups of rank 3
TV_RANK_TWO_RUNS = {
    ("z2cube", 2):
        "ef9a29dfcc7ef259fbb144e6c002608d97801c6e4be8567d43738649faf80478",
    ("z3cube", 3):
        "9154fd41ff91e3199f57f23c3f047d6787215a4bc6c1567bd2e01e9fc1915507",
}

MODULE_RUNS = {
    "free1_p2": "5f13a0219d87489da767ba756ed8b53837b30b141f92d7e1fbe86cdecfad5c75",
    "point2_p2": "eb7e68baac8ff90e39bb08908613a029e5c590159357990101cc695a9515f4d0",
    "point2_p3": "eb7e68baac8ff90e39bb08908613a029e5c590159357990101cc695a9515f4d0",
    "tied_p2": "970d4c82b9227c4e503c997688024854f1cba39be456ef972cb06f32e601ef52",
}

# tv --module --rank 0: the CLI's one route into `fp_dim`
MODULE_RANK_ZERO_RUNS = {
    "free1_p2":
        "abfedab67118efd38a3c11a49df9dad09809f58f7e87b2f2f43fdf8205f9e789",
    "point2_p2":
        "67659a7486858b25beec819ed97ada2ac5fdf732ed5ea0ed07b04981b42945dc",
    "point2_p3":
        "67659a7486858b25beec819ed97ada2ac5fdf732ed5ea0ed07b04981b42945dc",
    "tied_p2":
        "8883773eba13e31f0d24ecc74160fcf165d9db1af725180989933089b11c2af9",
}

LOCALIZE_LEVEL_RUNS = {
    ("z4xz2", 2, 1):
        "7b2a2614d3b633abb18f977a1a1ce45cfa26dfab0960f3d3321704f0a9a05225",
    ("z4xz2", 3, 1):
        "fd30e9e0c0313ae97f4e37be098812a8d2d239270a08fd11a8d69527d7a3bf97",
    ("z9xz3", 2, 1):
        "d0bd62fdc50d33e6110f9936a38a69d8bb1859019da69e3e12de8b6a8813d288",
    ("z9xz3", 3, 1):
        "8e8015d21d7cf1da89f8b87e8db74a1b8193704ca068cc091563099440e4774a",
    ("z8", 2, 1):
        "8ac8d842a61b48aa45743ac00fd4744ac04b53ff6b83d55608ce5671243cfd39",
    ("z8", 3, 1):
        "bbf1c5f417705f76e6e743c27a702820814693a2e74c4a2ad799a47dccb6e261",
    ("z12", 2, 1):
        "e64047aa867a348cc8de1487725fc2baeb93557cb36aacd5924659254bae2b4c",
    ("z12", 3, 1):
        "1f5b5d52f784f3ee0410828d907582d741460eaf4a394bcc54e152c55dba8546",
    ("z4xz2", 2, 3):
        "d5a3dc3e75aadae7519b151bb59c2ddb6d7087d97513e9add24df8ff81efff72",
    ("z4xz2", 3, 3):
        "7f9d1762b093760d55ccfd87e5ec714de87b7632bebb9bef7247f1542fdd3237",
    ("z9xz3", 2, 3):
        "888127281c1fd9d1a7a2d2df9e7ee6edc578e06e591b726917ca2e8c568816f7",
    ("z9xz3", 3, 3):
        "f724c5b947bb87558ab071e8a649291505ceed13d7fb00bc5764e4dc2473096c",
    ("z8", 2, 3):
        "f1fb38dfd99a3a81f465371cb93513d6f0485446fe65acc80bd3276d298b0975",
    ("z8", 3, 3):
        "2ccc9a580937cd2bddcb56b835eecff9da58d62c64eb0703233910d8557ec07a",
    ("z12", 2, 3):
        "1f744d4ee8007d31739b44e301dcad66916c598aa78c90d7284017f380529a84",
    ("z12", 3, 3):
        "babfb7b4b1def47a1d27a85fcd2e701a2d7fdca947a1ecee5f89897cb7ddddd1",
}

NIL_RUNS = {
    "free1_p2":
        "611ef986e7bb188d867171dff49e36fcd704bcb463da6053719ab6d767a67179",
    "point2_p2":
        "c9a27bc876729a1aa47957b1bbdba9b1d721f1c77ed9083167f1da2ed0e66c86",
    "point2_p3":
        "c9a27bc876729a1aa47957b1bbdba9b1d721f1c77ed9083167f1da2ed0e66c86",
    "tied_p2":
        "b419f4c45501cb2d911b34eedfa4a2b67c21166a3c68dfffacab6570c96c90b3",
}

# quillen-check past the default cutoff, and where T is trivial
QUILLEN_CUTOFF_RUNS = {
    ("z3cube", 3, 8):
        "38a315049ce0df0cd6547511eea6296a83c5b0be15f680376e20cfb1dbbbff84",
    ("z3", 2, 8):
        "17356468c18a9405dd8f4d8ba78ac77b61770c7d948ff0ec7a3ba82e51ea56a2",
}

QUILLEN_RANK_FOUR = (
    "4d6dd37dc08410258f6273f56ebc682d5c61a4edf9f765d109d4537f37f6e6ce")

# quillen-check as TSV, and on (Z/11)^2 at p = 11, where a certificate
# vector has two-digit residues, in both formats
QUILLEN_FORMAT_RUNS = {
    ("z3cube", 3, 8, "tsv"):
        "b0f1333d622e7269a49dd27422410d50e36b7008a2452d4afeaedf633ff64994",
    ("z4xz2", 2, 8, "tsv"):
        "9ca90b15815341d96db80e0ff42a725d8080af19cffafeb3585fca4bfa9af06f",
    ("z11sq", 11, 6, "tsv"):
        "a36fe6ec0959c97b5eae982ff485f4bef0b121c468e9f3d8a34104976c4011d2",
    ("z11sq", 11, 6, "json"):
        "d9c42354df2577919dbcb18d51d14fc9e2e2d5328268024178bc8ec827ca64d0",
}

# localize on the elementary abelian groups of rank 3, past the default
# cutoff and level
LOCALIZE_CUTOFF_RUNS = {
    ("z3cube", 3, 3, 8):
        "e005af5c7170a38c8a763d6983d8d36e9dcf2764e39e4f68cd14926cbc72d055",
    ("z2cube", 2, 3, 10):
        "30400577cf37933f957373ef4d24d62d5a7dd80933b1c22d04470a06dcbe7b59",
    # level 4: condition blocks with j2 >= 2 and j3 >= 1 at both primes
    ("z2cube", 2, 4, 8):
        "a54fe6bd8e3fea7bc08587529975048a25938af15dc472fc6b63e2c4f99e13ee",
    ("z3cube", 3, 4, 8):
        "bfb80f03ce89a3150c83744255262424c1fb335dd0af471fbbf832fa15781420",
}

# the widest equalizers pinned: level 4 on (Z/2)^4 through degree 12 and
# on (Z/5)^3 through degree 8, level 3 on (Z/3)^4 through degree 8
WIDE_LOCALIZE_RUNS = {
    ((2, 2, 2, 2), 2, 4, 12):
        "a93464eb4e7d4cebe986a634625ab3f2faa946d102770e5f45e970c788ef8a2a",
    ((5, 5, 5), 5, 4, 8):
        "cae541bc5599e36773390f09a2ed4f77ceee48e3c51cc47014ed9093acd196a2",
    ((3, 3, 3, 3), 3, 3, 8):
        "3dee79673087daed7a383bb073869c25504e5f1fef58195c19a10e9f14eee196",
}

LOCALIZE_RANK_FOUR = (
    "5835f539fd35dcd26982ba373a8379f3621c6e8dd5ba649e770b1bc571e4f0c4")

# the largest subspace lattices pinned: 374 objects and 5,769 inclusions
# on (Z/2)^5, 212 objects on (Z/3)^4
LATTICE_RUNS = {
    "localize":
        ([2, 2, 2, 2, 2], ["--prime", 2, "--level", 2, "--cutoff", 4],
         "d8a8910cd78ea4cd08dfda33a8b7320edd73f72130056af144f05da0a7ac200d"),
    "quillen-check":
        ([3, 3, 3, 3], ["--prime", 3, "--cutoff", 4],
         "cb5916b0aa25c7b2e9fb836443d669eb7e2e40b2c5f4be6ec2b8718d524debd8"),
}

# reps on nonabelian groups: the catalog's a4, d4 and q8 at rank 3, p = 2,
# and S7 (5,040 elements, from a transposition and a 7-cycle)
REPS_CATALOG_RUNS = {
    "a4": "9868c6e50e9041a5da2c8b8974cbf8876a5419454f11982922f8c0722f8ecde0",
    "d4": "5597a2e1306486007b08113275ea43fe5e015afe02da1784d09457665346e9e8",
    "q8": "4aca37771a89f031c5bb45a1b68588215e40ea1634d7daa780c6c6bdee9d239f",
}

S7_GENERATORS = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]

REPS_S7_RUNS = {
    (2, 2): "bd35f21e451ab7221dff749326d0ae3c87bcf657c5c69556bdc60186d5127c6c",
    (3, 2): "102fb184914d57b889cb85b79c4e4ed8db45fed5a6d0380f514ca25852c8236b",
    (3, 3): "3d56bdb50bbde8a1893b031f853f01f725dd2d070298912c78ebe50ac1524ca1",
}

D0_TEXT = """\
d0 = 0 (verified-through-cutoff)
d1 = 0 (verified-through-cutoff)
largest certified nilpotent level = 0
bounds: d0 <= 1, d1 <= 2
"""

D0_Z2CUBE_TEXT = """\
d0 = 0 (verified-through-cutoff)
d1 = 0 (verified-through-cutoff)
largest certified nilpotent level = 0
bounds: d0 <= 3, d1 <= 6
"""

# `act` in degrees 189 (p = 2) and 80 (p = 3), where one whole degree of
# the action would not fit in memory; both outputs are nonzero
ACT_RUNS = {
    (2, 3, "y1^63 y2^63 y3^63"):
        "032f81a96a654ea7f82868436fd3c0eba52c0a371196fab81efe0926ea05c2b0",
    (3, 4, "y1^22 y2^20 y3^19 y4^19"):
        "b7dd7489ff4a61c34af9d34daec18196234a29c78a247b7d07ac5455dc217b56",
}

# sha256 over every nonzero P^a matrix from degree d <= 12 into degree
# <= 24 of ring_module(elem_abelian_ring(k, p), 24), k = 1..4 and
# p = 2, 3, 5: 623 matrices, each hashed after its (k, p, a, d, shape)
ACTION_MATRICES = \
    "74236df4203768d7b6dfc1ff81bd9a68c5ef8e88a4d90c24348b90bbe1148f71"
ACTION_TOP = 24

COMMAND_FLAGS = {"tv": ["--rank", "2"], "quillen-check": [],
                 "localize": ["--level", "2"]}


def digest(capsys, *argv, fmt="json"):
    code = main([str(a) for a in argv] + ["--format", fmt])
    out, _ = capsys.readouterr()
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command, group, p", sorted(GROUP_RUNS))
def test_group_run_output(capsys, data_dir, command, group, p):
    argv = [command, "--group", data_dir / "groups" / f"{group}.json",
            *COMMAND_FLAGS[command], "--prime", p]
    assert digest(capsys, *argv) == GROUP_RUNS[command, group, p]


@pytest.mark.parametrize("group, p", sorted(TV_RANK_TWO_RUNS))
def test_tv_rank_two_output(capsys, data_dir, group, p):
    argv = ["tv", "--group", data_dir / "groups" / f"{group}.json",
            "--rank", 2, "--prime", p]
    assert digest(capsys, *argv) == TV_RANK_TWO_RUNS[group, p]


@pytest.mark.parametrize("module", sorted(MODULE_RUNS))
def test_module_tv_output(capsys, data_dir, module):
    argv = ["tv", "--module", data_dir / "modules" / f"{module}.json"]
    assert digest(capsys, *argv) == MODULE_RUNS[module]


@pytest.mark.parametrize("module", sorted(MODULE_RANK_ZERO_RUNS))
def test_module_tv_rank_zero_output(capsys, data_dir, module):
    path = data_dir / "modules" / f"{module}.json"
    code = main(["tv", "--module", str(path), "--rank", "0",
                 "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        MODULE_RANK_ZERO_RUNS[module]
    # the rows are the module's own dimensions, as its compilation has them
    compiled = compile_presentation(
        FPModule.from_json(json.loads(path.read_text())), 8)
    assert json.loads(out)["rows"] == [[0, k, compiled.dim(k)]
                                       for k in range(9)]


@pytest.mark.parametrize("group, p, level", sorted(LOCALIZE_LEVEL_RUNS))
def test_localize_level_output(capsys, data_dir, group, p, level):
    argv = ["localize", "--group", data_dir / "groups" / f"{group}.json",
            "--level", level, "--prime", p]
    assert digest(capsys, *argv) == LOCALIZE_LEVEL_RUNS[group, p, level]


@pytest.mark.parametrize("module", sorted(NIL_RUNS))
def test_module_nil_output(capsys, data_dir, module):
    argv = ["nil", "--module", data_dir / "modules" / f"{module}.json"]
    assert digest(capsys, *argv) == NIL_RUNS[module]


@pytest.mark.parametrize("group, p, cutoff", sorted(QUILLEN_CUTOFF_RUNS))
def test_quillen_cutoff_output(capsys, data_dir, group, p, cutoff):
    argv = ["quillen-check", "--group", data_dir / "groups" / f"{group}.json",
            "--prime", p, "--cutoff", cutoff]
    assert digest(capsys, *argv) == QUILLEN_CUTOFF_RUNS[group, p, cutoff]


def test_quillen_rank_four_output(capsys, tmp_path):
    path = tmp_path / "z2_4.json"
    path.write_text(json.dumps({"abelian": [2, 2, 2, 2], "name": "(Z/2)^4"}))
    argv = ["quillen-check", "--group", path, "--prime", 2, "--cutoff", 6]
    assert digest(capsys, *argv) == QUILLEN_RANK_FOUR


@pytest.mark.parametrize("group, p, cutoff, fmt", sorted(QUILLEN_FORMAT_RUNS))
def test_quillen_format_output(capsys, data_dir, tmp_path, group, p, cutoff,
                               fmt):
    path = data_dir / "groups" / f"{group}.json"
    if group == "z11sq":
        path = tmp_path / "z11sq.json"
        path.write_text(json.dumps({"abelian": [11, 11], "name": "(Z/11)^2"}))
    argv = ["quillen-check", "--group", path, "--prime", p, "--cutoff", cutoff]
    assert (digest(capsys, *argv, fmt=fmt)
            == QUILLEN_FORMAT_RUNS[group, p, cutoff, fmt])


@pytest.mark.parametrize("group, p, level, cutoff",
                         sorted(LOCALIZE_CUTOFF_RUNS))
def test_localize_cutoff_output(capsys, data_dir, group, p, level, cutoff):
    argv = ["localize", "--group", data_dir / "groups" / f"{group}.json",
            "--prime", p, "--level", level, "--cutoff", cutoff]
    assert digest(capsys, *argv) == LOCALIZE_CUTOFF_RUNS[group, p, level,
                                                         cutoff]


@pytest.mark.parametrize("orders, p, level, cutoff",
                         sorted(WIDE_LOCALIZE_RUNS))
def test_wide_localize_output(capsys, tmp_path, orders, p, level, cutoff):
    path = tmp_path / "group.json"
    name = f"(Z/{orders[0]})^{len(orders)}"
    path.write_text(json.dumps({"abelian": list(orders), "name": name}))
    argv = ["localize", "--group", path, "--prime", p, "--level", level,
            "--cutoff", cutoff]
    assert digest(capsys, *argv) == WIDE_LOCALIZE_RUNS[orders, p, level,
                                                       cutoff]


def test_localize_rank_four_output(capsys, tmp_path):
    path = tmp_path / "z2_4.json"
    path.write_text(json.dumps({"abelian": [2, 2, 2, 2], "name": "(Z/2)^4"}))
    argv = ["localize", "--group", path, "--prime", 2, "--level", 2,
            "--cutoff", 6]
    assert digest(capsys, *argv) == LOCALIZE_RANK_FOUR


@pytest.mark.parametrize("command", sorted(LATTICE_RUNS))
def test_lattice_output(capsys, tmp_path, command):
    orders, flags, expected = LATTICE_RUNS[command]
    name = f"(Z/{orders[0]})^{len(orders)}"
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"abelian": orders, "name": name}))
    assert digest(capsys, command, "--group", path, *flags) == expected


@pytest.mark.parametrize("group", sorted(REPS_CATALOG_RUNS))
def test_reps_catalog_output(capsys, data_dir, group):
    argv = ["reps", "--group", data_dir / "groups" / f"{group}.json",
            "--rank", 3, "--prime", 2]
    assert digest(capsys, *argv) == REPS_CATALOG_RUNS[group]


@pytest.mark.parametrize("rank, p", sorted(REPS_S7_RUNS))
def test_reps_s7_output(capsys, tmp_path, rank, p):
    path = tmp_path / "s7.json"
    path.write_text(json.dumps({"degree": 7, "generators": S7_GENERATORS,
                                "name": "S7"}))
    argv = ["reps", "--group", path, "--rank", rank, "--prime", p]
    assert digest(capsys, *argv) == REPS_S7_RUNS[rank, p]


@pytest.mark.parametrize("group", ["klein", "z4xz2"])
def test_d0_bounds_text(capsys, data_dir, group):
    code = main(["d0", "--group", str(data_dir / "groups" / f"{group}.json"),
                 "--faithful-degree", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, D0_TEXT, "")


def test_d0_bounds_text_rank_three(capsys, data_dir):
    code = main(["d0", "--group", str(data_dir / "groups" / "z2cube.json"),
                 "--cutoff", "8", "--faithful-degree", "3"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, D0_Z2CUBE_TEXT, "")


@pytest.mark.parametrize("p, rank, poly", sorted(ACT_RUNS))
def test_act_high_degree_output(capsys, p, rank, poly):
    code = main(["act", "--prime", str(p), "--rank", str(rank),
                 "--op", "P^3", "--poly", poly])
    out, _ = capsys.readouterr()
    assert code == 0 and out.strip() != "0"
    assert hashlib.sha256(out.encode()).hexdigest() == ACT_RUNS[p, rank, poly]


def test_catalog_action_matrices():
    h, count = hashlib.sha256(), 0
    for k in range(1, 5):
        for p in (2, 3, 5):
            module = ring_module(elem_abelian_ring(k, p), ACTION_TOP)
            for d in range(13):
                for a in range(1, d + 1):
                    if d + a * (p - 1) > ACTION_TOP:
                        break
                    mat = module.act(a, d)
                    if mat.any():
                        h.update(repr((k, p, a, d, mat.shape)).encode())
                        h.update(mat.astype("<i8").tobytes())
                        count += 1
    assert count == 623
    assert h.hexdigest() == ACTION_MATRICES
