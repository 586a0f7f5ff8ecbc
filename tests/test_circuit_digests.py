"""SHA-256 pins on every circuit builder's text and on the state it leaves.

Each case builds one circuit at n <= 2, q <= 3 from a seeded image and
pins two digests: the text ``format_circuit`` writes, and the amplitude
bytes ``run_circuit`` leaves when the circuit runs on the image's prepared
state, padded with |0> workspace qubits above the image register (the
preparation circuit itself runs on |0...0>).  The arithmetic builders are
laid over the image register: the adder and comparator over the x and y
position qubits, the saturating circuits over the lightness qubits.
Regenerate a digest only for an intended change of an emitted circuit.
"""

import hashlib

import numpy as np
import pytest

from qhsl import (
    PseudocolorMap,
    QhslImage,
    RegionConstraint,
    StateVector,
    comparator,
    comparator_region_circuit,
    format_circuit,
    hue_shift_circuit,
    invert_color_circuit,
    lightness_add_circuit,
    lightness_sub_circuit,
    preparation_circuit,
    pseudocolor_circuit,
    ripple_adder,
    run_circuit,
    saturating_add_circuit,
    saturating_sub_circuit,
    saturation_shift_circuit,
    simulate_preparation,
)
from qhsl.color import FULL_TURN_STEPS
from conftest import gray_ramp_image

SIZES = [(1, 2), (2, 3)]


def color_image(n: int, q: int) -> QhslImage:
    rng = np.random.default_rng(100 * n + q)
    count = 4 ** n
    return QhslImage.from_arrays(n, q, rng.uniform(0.0, np.pi, count),
                                 rng.integers(0, FULL_TURN_STEPS, count),
                                 rng.integers(0, 2 ** q, count))


def regions(n: int, q: int) -> dict:
    top = 2 ** q - 1
    return {"none": None,
            "light": RegionConstraint(lightness=(1, top - 1)),
            "rows_cols": RegionConstraint(y_range=(2 ** n - 1, 2 ** n - 1), x_range=(0, n - 1))}


PSEUDOCOLOR_MAPS = {
    (1, 2): PseudocolorMap(((0, 0, 10.0), (1, 2, 200.0), (3, 3, 120.0))),
    (2, 3): PseudocolorMap(((0, 3, 300.0), (4, 7, 45.0))),
}


def cases() -> dict:
    """Case name -> (source image, circuit)."""
    out = {}
    for n, q in SIZES:
        img = color_image(n, q)
        layout = img.layout
        total = layout.total_qubits
        tag = f"n{n}q{q}"
        out[f"{tag}.prepare"] = (img, preparation_circuit(img))
        for name, region in regions(n, q).items():
            out[f"{tag}.hue.{name}"] = (img, hue_shift_circuit(layout, 2.2, region))
            out[f"{tag}.sat.{name}"] = (img, saturation_shift_circuit(img, 0.7, region))
        out[f"{tag}.invert"] = (img, invert_color_circuit(layout))
        for k in (0, 1, 2 ** q - 1):
            out[f"{tag}.lighten.k{k}"] = (img, lightness_add_circuit(layout, k))
            out[f"{tag}.darken.k{k}"] = (img, lightness_sub_circuit(layout, k))
        # a single bound at n=2 keeps each register at 16 qubits or fewer
        light = RegionConstraint(lightness=(1, 2)) if q == 2 else RegionConstraint.lightness_leq(5)
        rows_cols = RegionConstraint(y_range=(1, 2 ** n - 1), x_range=(0, 0) if n == 1 else None)
        for name, region, dphi in (("light", light, 1.5), ("rows_cols", rows_cols, -0.9)):
            out[f"{tag}.comparator_region.{name}"] = (
                img, comparator_region_circuit(layout, region, hue_shift_circuit(layout, dphi)))
        gray = gray_ramp_image(n, q)
        for selector in ("patterns", "comparators"):
            out[f"{tag}.pseudocolor.{selector}"] = (
                gray, pseudocolor_circuit(gray, PSEUDOCOLOR_MAPS[n, q], selector))
        x, y = list(layout.x_qubits), list(layout.y_qubits)
        out[f"{tag}.ripple_adder"] = (
            img, ripple_adder(n, x, y, total, list(range(total + 1, total + 1 + n))))
        out[f"{tag}.comparator"] = (
            img, comparator(n, x, y, total, total + 1, list(range(total + 2, total + 2 + n))))
        target = list(layout.lightness_qubits)
        addend = list(range(total, total + q))
        chain = list(range(total + q + 1, total + 2 * q + 1))
        for name, build in (("saturating_add", saturating_add_circuit),
                            ("saturating_sub", saturating_sub_circuit)):
            out[f"{tag}.{name}"] = (img, build(q, 2 ** q - 2, target, addend, total + q, chain))
    return out


CASES = cases()

# case -> (SHA-256 of format_circuit, SHA-256 of the run_circuit amplitudes)
CIRCUIT_DIGESTS = {
    "n1q2.comparator": ("f0fff561d982a507493a7b1eaac363f0c8ad63c39351c35ef01ac0ca5819e66a",
                        "2ed922dd2a4bf5f676267281353c41ecba44914ebb9cbedae30e249f93321519"),
    "n1q2.comparator_region.light": ("1fa6ad1198441a35f37e480ae695c1fbcf1c45ef2b956ed42a31dc662f0915bb",
                                     "6a9044fec6adb15979622b9da383d614a3ef2d8ccc722d8d209fd18a695286b9"),
    "n1q2.comparator_region.rows_cols": ("d9983dfd5e6047c511447e490f8f0c44c4f0d72cbcf91b0ae976aa5b90b3de31",
                                         "9114e239dbd9d043ba93f329ffc85ba2c22fc3ef287b86d29b978b26bb67b8d3"),
    "n1q2.darken.k0": ("45fd0cf7adb49a89822401625cf67b004a5cd916b7a4a523efedbbbe880b3238",
                       "c79a06c0aea669fa0e011a6a000b6806f2fe76fd93493479823b7ef29586255a"),
    "n1q2.darken.k1": ("253d557c4ffefae7e668b6281f9f9491b9c54f6bd96a445362eeddfa12782bf4",
                       "473a03afab1625703598fe66941c087b697d505f1400e80baf4955099a51cec9"),
    "n1q2.darken.k3": ("6dd8c1916b05b2046c38ad19fa863326a78d040bfbcce83d13bd3cfea03fad0b",
                       "fe9e681c9b0801440c297466a428d6108c6625863e3670069d97da6c31f5c243"),
    "n1q2.hue.light": ("0bf8ea92eeec200931ddf87becaa57bb98d1bb2490f8851f61c0b0b4744b8254",
                       "0ea9a5c2a1cf654463f01304b7a089bef450b6670f2058213ce6ab421f390804"),
    "n1q2.hue.none": ("a27c1b329f606016b50f6dc06bf1be834763ea34fb46419bec1c7008e9788616",
                      "be9478c160c6f4fc904a225251eac97994949fe7ed1dcebaadba40f455b1a165"),
    "n1q2.hue.rows_cols": ("6fbb7fcd067e6e7912867527ec14f6e4fc7ccf7208d0ea336e2f4c331c74e81b",
                           "dc87edd72b7a3fe4f22545aff327631479990f0e706574dc43b1cd17a13a4543"),
    "n1q2.invert": ("7aa69d8e12605d6ca40a596516f2bccadc2ca6ba65e69276978aceee394a242d",
                    "72f05107704a4b50da1df0b01ecfc4d34c826bdab10641c3df0c633b47207b64"),
    "n1q2.lighten.k0": ("45fd0cf7adb49a89822401625cf67b004a5cd916b7a4a523efedbbbe880b3238",
                        "c79a06c0aea669fa0e011a6a000b6806f2fe76fd93493479823b7ef29586255a"),
    "n1q2.lighten.k1": ("3f31e84cca9eb01f41b25e73f405edec1d2b0dd60d010abc546356a0a5f1cf42",
                        "82fd9541548d28d68b94de8d58feeff5d8f8346d6fce9ce34ce9d6f886ceb2db"),
    "n1q2.lighten.k3": ("746f1e4f82c719336a717d7b506913f5d01cd17be22641068f3efae53b582a46",
                        "6f33282d28738058bdcd46f299fe05d7ee8719129888418b7275518ba463fbeb"),
    "n1q2.prepare": ("e971c82b706d32bff3d2bf00b8e3143f6a8ad3a0b160782fda0a9aace9b14cfd",
                     "ec5fe8272fe3a462ce600097e674a0a223fddd51b4e52e8421c371b83ef24124"),
    "n1q2.pseudocolor.comparators": ("5713ea1ecce48c0518a5bca8b2d251312eefef1053701ff44785e7c1cc978bdb",
                                     "8a65f1d7e1e8d8544f728790b7ef25cb2df0cbdd2e048abdc83ffa642b712b23"),
    "n1q2.pseudocolor.patterns": ("2643bf89e0602432026e47e99fb408b92efa5e0bff82dd7d4f91202e34c6fc6e",
                                  "716fe627cd858d80c50b45683565fdb739698c5cddc368e809eab2b5b3412afa"),
    "n1q2.ripple_adder": ("a482feef8d45fe1442e4029d9b50ad219c0a1ea8021a9552d6aaf0c2273b43a4",
                          "ff8e1e87bba8a3fa441cbace3a69f2c07196b60e20d444120b7a7822faa6fa37"),
    "n1q2.sat.light": ("a4c4e739c952867730947b4ceb1b0abd3ebdbde2b871048e9d0ca5caf1371d2d",
                       "99fc021be120cb8d4505f53fb8e621ac8cddf04373e5b8decce9b08b9da20e21"),
    "n1q2.sat.none": ("63fa46137a6471da6e2cce37b351fa2960ffb1364cd26f5017223a8e2cf99b9c",
                      "d798aa66eab839c9aba82b7faccfdb0937c1e5ceb9cbee7e7fb1c72c7f12844e"),
    "n1q2.sat.rows_cols": ("06704c0de3da46e8f0a905c2a979cc954c50f2336c025d1c37ec6f4702edd68e",
                           "c50940eb33f208d571c239cd53b971c3ef2669739e6930faa3124531da42bcc1"),
    "n1q2.saturating_add": ("74a745ca09f1de80fbc5a6813d03a7d37ea58e5d1f84de04b93c298b62c334be",
                            "c3bb2958a4ee297fe20923a854a22e18bbf25001794052348bf69b268e0f73ec"),
    "n1q2.saturating_sub": ("24323cdf576baed2c1d741609368c6e1f01ad370c2255364b367df5e545bf9bc",
                            "6b8761f230a6d77426e18443245a5107fe3131fc3701e40898ebc118d37486e2"),
    "n2q3.comparator": ("f72c2d7567d8405ede237f68435d03ce86903fe2109021fb6f4b6d98953f7926",
                        "4b0ca7d456573d7e3083461a5ba59bc76f8ed25a7838d67c95643727ae11c41a"),
    "n2q3.comparator_region.light": ("ff223fd000ded968da3b583519743b618265df9a9df4771fc552581652f8c26a",
                                     "60dcc29ba4a121be3b238be43b14c669d36a7e9cd3c489c1f0cbf2efd8b9fb7d"),
    "n2q3.comparator_region.rows_cols": ("08e9b349858380625899c6089bd34e29c28d8853d6532d7400265c9eab8fb13d",
                                         "6ed648c8448537a4c31d578db50b4c2035b5c0cd1511ff758e60ed762499384d"),
    "n2q3.darken.k0": ("99bc3509ed742d34b77f5e61272e3fb054a03db8dbfb6e3b02f2a0697ae46387",
                       "1e4e9caacaa12c75a45e7c4af9863aea7e67a5aa7d9922dca5d0e154d14c8d97"),
    "n2q3.darken.k1": ("9bee6a321d42976e86bd7181ebead196a27fd6b51db11f6844534e9a69b5d4f4",
                       "bc9ebad91eb0d633ea9b08f4f8afb5a3427a3b2193572e213d946a9e3ad38ecb"),
    "n2q3.darken.k7": ("1dc8c1821e3fa8afec35f5f3d27b96e28850d99f8d8860f4e58ff157acd79db9",
                       "679f8538bfd283fd0fb7b7da3aa62b7b9ad37a3ff5181ce29f0f5e26f675c4f5"),
    "n2q3.hue.light": ("e31b1baf3fec82be758afcd12a19ddeba952fbc1b8a75ede781f944c7ac42e82",
                       "8cf722b0385e4e1e31b3708aa9615d3b2076d724b7df87ca6ced74fc1eccd7ef"),
    "n2q3.hue.none": ("4ef82902a91971b104781df09a57cd2a02ef5c101f66f32159d83470d4a7c555",
                      "a5161d85ec2f980b804dd094c53d9dd1286b686aa4705239feefac7ff4aa0166"),
    "n2q3.hue.rows_cols": ("d44d4fcfff6c0ab545c22c4b67ae331b94c9fd7ffa3b0fa0e1656d71d3de1474",
                           "185c0bc3a4e18a44616d64ed24263fec277155505f7c2adfd2439866e06c66dd"),
    "n2q3.invert": ("bdc15410e6bf5853218f6a44ce88edde953a3a44d288b9effa8a915ae563e6ee",
                    "c58d577ffd6152e39b76f004cfa6496c37906d322cf7bdddfb420ba0d90abf9a"),
    "n2q3.lighten.k0": ("99bc3509ed742d34b77f5e61272e3fb054a03db8dbfb6e3b02f2a0697ae46387",
                        "1e4e9caacaa12c75a45e7c4af9863aea7e67a5aa7d9922dca5d0e154d14c8d97"),
    "n2q3.lighten.k1": ("992c689560020361f8645e948673c16f949bcc703559ed211e5f04354f5c01a4",
                        "e0d62dae8a90e90b34c5cc1aaf8c9dbc4db344df196d76c0f0b48eb098770f6a"),
    "n2q3.lighten.k7": ("c34ee5bf8cd4c6a73e3e7fb7aa4518f66321d3671cbf6b13a68a658efca6f387",
                        "2050c90fa3dcd3d770a7853a55bd90f889cdce42579954e371a62c13842e1a34"),
    "n2q3.prepare": ("8be1a7a38414437bfc72e17e6182feac28de2429af480a3a9d958e9bd4bad7a0",
                     "f7c4dba640db38bc8f86e7ec5318390208d2482d4125a27957655cc727558f60"),
    "n2q3.pseudocolor.comparators": ("ef82d7862417f9f00a8f00244ee03d77ac129ae6c2687341ac7c005621fff2d1",
                                     "d871208ddc506cde3469a922fa1b1818703db6b3af815c2194fff7e09e1ee947"),
    "n2q3.pseudocolor.patterns": ("f3da99eb5547b0b8ed894e98a912c0c1defaeeb78b15ccf9a21d3bbe8043332f",
                                  "e5a1a12b237d2c92dbfd8e3890751074ca25945d6fa3508cc00205b708b5e2a8"),
    "n2q3.ripple_adder": ("f020fc98261cf2374494f942e6a0fdf47620b175547df116b2db3b1084b3c9fb",
                          "338aca1d758895ac9af568993d3ff16b56158408e4423df07c66e740707a3eed"),
    "n2q3.sat.light": ("5983a42d014e201e83fd849eb37c9f1d20c8941288691226b3ba84a8cf04d34b",
                       "601fc5fbf6e686b4983a19de61cb92c0ca28709fda61c2e90a920d9b51b56d46"),
    "n2q3.sat.none": ("d7c460e2bb0cc3fe7118eed63778192ad77a11430ae3dbfc4835ade4c5cb61dc",
                      "74b7093858f316ec4b9f08d52cfc3057070b62b48c59a3b96a92ce4e7b1c1393"),
    "n2q3.sat.rows_cols": ("045ac9200d8816356d40de2508970129d996c2e17ac498b882cb52bb2403622c",
                           "0aac1ee823b14ea7386fe65eb1135e21a9df2b0d32ed55568f91ca8f952c33ab"),
    "n2q3.saturating_add": ("25ed55413aec10652fae18279d74938b740fbd68c0606312f6433aa7864924d2",
                            "7a96f022a84fcbb586e0b9078f3d5d246dd0e0c5070ca3ad8022a01637b63004"),
    "n2q3.saturating_sub": ("beb1f6277d9388d1a2ee67618ea255bdcdbf8e6453fff3312478b6287c69d4fd",
                            "0c2b89dc8055e87de1ea623d31c1ff0bb31fb08cbf60ef1b5e2abac8e8ff316a"),
}


def run_digests(name: str) -> tuple[str, str]:
    img, circuit = CASES[name]
    text = hashlib.sha256(format_circuit(circuit).encode("utf-8")).hexdigest()
    if name.endswith(".prepare"):
        start = StateVector.zero(circuit.num_qubits)
    else:
        prepared = simulate_preparation(img)
        amps = np.zeros(2 ** circuit.num_qubits, dtype=complex)
        amps[: prepared.amplitudes.size] = prepared.amplitudes
        start = StateVector(circuit.num_qubits, amps)
    out = run_circuit(start, circuit)
    return text, hashlib.sha256(out.amplitudes.tobytes()).hexdigest()


def test_every_case_is_pinned():
    assert sorted(CIRCUIT_DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_circuit_digest(name):
    assert run_digests(name) == CIRCUIT_DIGESTS[name]
