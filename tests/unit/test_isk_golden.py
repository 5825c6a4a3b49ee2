"""Golden pins for the decisions of the IS-k window search.

Each case pins the sha256 digest of ``schedule.to_dict()`` with
``metadata`` popped, written as sorted-key JSON, so every chosen
implementation, placement, region and float time is covered.  Node
counts and search stats are left out on purpose: they describe how the
search reached its answer, not the answer.

The cases sweep 10-task instances over k in {1, 3, 5}, larger ones at
k=5, runs whose node budget binds (the 25-task instance is the suite's
``medium_instance``), one budget-bound exhaustive run and the parallel
first-level fan-out.  A mismatch means IS-k decided differently; the
digests are not meant to be edited.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines import exhaustive_schedule, isk_schedule
from repro.benchgen import paper_instance


def _digest(result) -> str:
    data = result.schedule.to_dict()
    data.pop("metadata")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# id -> (tasks, seed, k, extra options); k None runs the exhaustive search.
CASES: dict[str, tuple[int, int, int | None, dict]] = {}
for _seed in range(20):
    for _k in (1, 3, 5):
        CASES[f"p10-s{_seed}-k{_k}"] = (10, _seed, _k, {})
for _tasks in (20, 30, 40):
    for _seed in (2, 5):
        CASES[f"p{_tasks}-s{_seed}-k5"] = (_tasks, _seed, 5, {})
for _limit in (1, 500):
    CASES[f"p25-s11-k5-n{_limit}"] = (25, 11, 5, {"node_limit": _limit})
CASES["p30-s2-k5-n2000"] = (30, 2, 5, {"node_limit": 2000})
CASES["exh-p8-s1-n50000"] = (8, 1, None, {"node_limit": 50_000})
for _seed in (2, 7, 11):
    for _k in (3, 5):
        CASES[f"p12-s{_seed}-k{_k}-j2"] = (12, _seed, _k, {"jobs": 2})

DIGESTS = {
    "p10-s0-k1": "cfaa00a66b0cc288fa7f8ab284b5d72366cb5986c49b12ea8df16c80a5e99cf8",
    "p10-s0-k3": "bd882d302583bc66c604e6c26aa0de556b41318584b7e487331a0aa47dc7c250",
    "p10-s0-k5": "2be0d3834772d98002493100a5e1392c622a37fd45839ce55250eab519622329",
    "p10-s1-k1": "a8e922c74defad84665447baec4a5ed2e00c69a1874d8d00ff79008373b13c68",
    "p10-s1-k3": "bcd99d5e8d0f5a9ec6f48734ab83b4bf27eeb5b8e776bdd1472c8503ac5a0bc0",
    "p10-s1-k5": "44bbbf8327dbab07db081999a8415d98ee23c191468b21ffaaca8b8af4866939",
    "p10-s2-k1": "da9dd5bf439e7f6f161eff8da911d2ab34e626657c523d624fd5a6aadcfe873c",
    "p10-s2-k3": "07f89d45c8d2b5d4395539ea370aa587bec844fb23d2e8304f5c5f3cb6c91267",
    "p10-s2-k5": "448bf6e52a5ee972e089fc01f8e13cf33bb91e45be209c03a28f2084037e7298",
    "p10-s3-k1": "84dae76088c94e5801f9367002a81419b7dcaa43dde06f8ad60623cddd102715",
    "p10-s3-k3": "2a43c2361dffa9786313eecf8ef5ae15c28b9751c367726585ce0eaa4cad37a5",
    "p10-s3-k5": "9bb2022b5a6472e56ac7608f1b1ec3d8ec2e86605168dcb079651a8b672ed172",
    "p10-s4-k1": "ea0e10c2fa60571200a6b7d1bf613669d36373178a881f92676cb9ee63143585",
    "p10-s4-k3": "eadfa415197fc64e8f5f20937df63cccee0cd1a65c66387ed291e6ea8bf736b8",
    "p10-s4-k5": "3324862b2aeac182b1f45669b5d5cf7dc10dc7dd8b395e8e3786207990adbd2f",
    "p10-s5-k1": "6ad2defab2bcc16b3316bd8853be6d09ebf4c49bcdc1d1003e80433014305dba",
    "p10-s5-k3": "d6b99e50bc4b3eb172354d380f1c541942f7709f50f5b587c15288e5248cc713",
    "p10-s5-k5": "2dbf7c56306ba2e4a7506f6f32d330e037422206f56a866dd0a0bf10e91dce17",
    "p10-s6-k1": "88c0d1f10c525782751cbcb0e3d78e3243255d9eac8e582c69f5f4e33421e889",
    "p10-s6-k3": "1d82c3d47c80f998310bcf037c601af7ab8dbfec2d829a363c83e062e50a8355",
    "p10-s6-k5": "0bd24cfb04fa52e9591368e5f92c34fe5dd9a11057305091c3d8d78f26b538aa",
    "p10-s7-k1": "6f2b955aac2481f73cc7b62ec5147de956aed6bf93568eea0675361e588d3f08",
    "p10-s7-k3": "a41e38d8fa5eea68c576ab064eff5067cd3c3773ea23eec1c53183150cf67fb6",
    "p10-s7-k5": "e9d3273dda658ea4064b2482bf870a7e98a46cd240145b963a75112f805a9dc2",
    "p10-s8-k1": "c050494f84fc497cf1c649c29cfbeb51b81eba30d081f544850511a983efa163",
    "p10-s8-k3": "3773781fa52a367eddd9c00faf803b611704b7a43193148aa338a523d3717799",
    "p10-s8-k5": "8d4a7d51ec5e11a954442bfdd2d77975bffaf8d53cdfae5ab9de48b6762d7e3c",
    "p10-s9-k1": "33968f1611932ffdb8fe1af8e5b537f54b3e89f597abffbd6ab32ea57bd28140",
    "p10-s9-k3": "dc947dd077b908ecce98ca9368a44728a5f0bd68834a8210b239ec14ab93322f",
    "p10-s9-k5": "d6061c98e0d649e5cbb98a05b8f27e98c112ee085532481d8c10352dc3cea137",
    "p10-s10-k1": "a6c5bcafe99bc61b773b87cccb86c64357a5822cc97da9d6661764b8147ac537",
    "p10-s10-k3": "43788cbb0df05a93516119afcd32204d03a47b8f512f01747f59330e8c1a90a7",
    "p10-s10-k5": "d132f53d0d5eb3143f8422d7eaf6f90eb489fd880194c3fbc87d52a4c97f1d7b",
    "p10-s11-k1": "8bf4f98c33a337418f4e81b3b99dc7afa2581a973e85c8e6781dd277b9ecf09a",
    "p10-s11-k3": "50a9b49329111f893487991bb0fb689d6ae87dd8af3cd015a81fbbd8e077d7f9",
    "p10-s11-k5": "a450da106b415aa19453dafa2f04741582469ed7d7fdc750b29f3bf6b03f7656",
    "p10-s12-k1": "4780a5daf35bde2cefb9c4b4aa2ccd71235967de89a78136c80e034a7f9501f4",
    "p10-s12-k3": "9ac59d65e4b634d543ea0a5840016cc09bd7648efbcf19c71fa24be66780017b",
    "p10-s12-k5": "497c1000dad06c663b8236d33ad10b414de329908815daa6ba327ced320a154f",
    "p10-s13-k1": "1fe621015277dc622d1f04005f7d766b060c153b575f8c48627def8444876509",
    "p10-s13-k3": "75ac4c99e1c0cf246909ad359b2ca6627b675c2e7f9becf8fa8949f3a6889bdf",
    "p10-s13-k5": "76490aa4377d070abd73ffa0a9f5dc5eba52e48895064caf058d8d8fe419ef6e",
    "p10-s14-k1": "ab1763f6c48c82d099dd4d303295cf62e74445e6b9cd3eeb38767a44dd988521",
    "p10-s14-k3": "e92cbd9aedb857076a46dd5c458658e61f7b8ebd5e2413d90e4c6f22319a5b93",
    "p10-s14-k5": "dff3ac62fad5f03d40b6ca2ec33fbec69ee20dae511e425ca012c4990301b56b",
    "p10-s15-k1": "b8d089c777cfa56298ef1184e9810749397f140f88f4a8ac925508121817bfb7",
    "p10-s15-k3": "a42189a475331bb7d27b468407b92a7d23b32c771cfc81211e13102faa2a3bad",
    "p10-s15-k5": "cc417a02c6d4dd5b545f685260c827fc73e9298f130a53709b08e75016be193e",
    "p10-s16-k1": "ff606f0d9c411cd48838ea10230a8cfa60cef7a0a02080b81956a4c6cda9b2b7",
    "p10-s16-k3": "3102c82b63e7e374799bbb0e06b503ad105f4273663ae0ca10641cd96eed58c4",
    "p10-s16-k5": "372afdecbc6f8a412cf6a9fe6650f674cc96ad306e5428a2b8d0003d10d4e2c1",
    "p10-s17-k1": "6a3deae467761e7cebc660aa1ea02c1884245a72af66bc84faa5782429353834",
    "p10-s17-k3": "7647767557d1d3e3b25c52f01c0241d9c5393670bb6b6529d277844571c266eb",
    "p10-s17-k5": "f79a675279f364d83e2f8e075ba9f7981fcf80ea34749d92ecd500ed72c3786e",
    "p10-s18-k1": "2683f1d4f71b02d63b72ed2a495658cf38fb51500bcd4ee156c73346d0e7fb58",
    "p10-s18-k3": "5aba1ca37537634613b58edc0752b7a3fb6b9e13b640bc54c297abcbb26b663b",
    "p10-s18-k5": "8354bbc7e600c93d04aaecf6a6d7213c646e6eb9d87bf3fb538794915075b34e",
    "p10-s19-k1": "7a00ab650cd7e2037bc15c8283a9a2794194e0c057d9353c664c6ebae40742ef",
    "p10-s19-k3": "01324fd5a40d29ca64399b0cc5d1cd474f33747714f42c984f3854c68e6666a2",
    "p10-s19-k5": "09a2463400f79462565c061b04e9a274bb33cd392e3cf6683fbab65d9b73f187",
    "p20-s2-k5": "1ae369733fa0aeb033e9cfb561c5a6cc0a6d800ca1030cbc720ac665fd042b19",
    "p20-s5-k5": "c78adfc41f0c8b64408419016b8d99fb75b231060b9a2cd5a3f3bfbd7c23d1fd",
    "p30-s2-k5": "f7abe542c1d0b1b9e010ba93de90f62753c0cd3a5181f1ab25c4c07257739538",
    "p30-s5-k5": "20c664a7ad53258834456073147accf186b4ee475174e6715095131b43a35171",
    "p40-s2-k5": "1ef9d43acea42498b84eb11e832b700437f883daab26e5caae8a694d6fbdf170",
    "p40-s5-k5": "18f267101d71ae29c60d967a46dc128b9bce49d8736bbab0ba86c4c7910354a8",
    "p25-s11-k5-n1": "92520002c09c5b397b73dc9164a89db2424480799fe4080ac9e7378bbdd85e5a",
    "p25-s11-k5-n500": "81e85b18103bccbe6feacc7c486dfab2d49adbc91a71ac4a5cb0c07dd6b73581",
    "p30-s2-k5-n2000": "893818fdbef9b7f64ee15be87c8c1b9e8acd9754fc66e74aa438a2b352204888",
    "exh-p8-s1-n50000": "25d687f111f0c9f3c5c0dead9f84f6486f5811a86d30ab122291a4dd6f83120a",
    "p12-s2-k3-j2": "f6bbc8e99c0fa78701aa7257fac51e6c9bc4e702be66372d318e944f79eb121e",
    "p12-s2-k5-j2": "a7af5b7cd5fa8fc74c64d8a2c33a64b7e79aac5bcd414c830af17448bffc2965",
    "p12-s7-k3-j2": "4aa1a6b00340d7dfd6839129050cabcf079de1d0c2251956eaf4e6d6c87eac48",
    "p12-s7-k5-j2": "1d1639f853e38f81dc69656b0087eb172ead862853d45607aab51e2c72fd08ee",
    "p12-s11-k3-j2": "0dad3badaab80da3c633b6ca2b99aab64748672f4f2ec33f77bde14530ed37a8",
    "p12-s11-k5-j2": "690f0601d74b0a4a44017b5a22e545a3cbac26e5f46186a71a16f146b99b698a",
}


def test_every_case_is_pinned():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("case", list(CASES))
def test_isk_golden(case):
    tasks, seed, k, extra = CASES[case]
    instance = paper_instance(tasks, seed=seed)
    if k is None:
        result = exhaustive_schedule(instance, **extra)
    else:
        result = isk_schedule(instance, k=k, **extra)
    assert _digest(result) == DIGESTS[case]
