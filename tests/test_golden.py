"""Golden CLI outputs: the exit code and stdout of one command per row.

Each digest is sha256 over f"{exit code}\\n{stdout}".  The rows cover every
subcommand, laws with unreduced and coprime masses in one and two
dimensions, and error paths; a change to the exact kernel or to the
output format shows here as a changed digest.  `{name}` in a command is the
path of the input file INPUTS[name].  `asym wagner` is left out: its float
column comes from libm `pow`, and tests/test_cli.py pins its exact column.
"""

import hashlib

import pytest

from anticonc.cli import main

LAW_1D = '{"dim":1,"atoms":[[[-2],"2/12"],[[0],"1/4"],[[1],"3/9"],[[3],"1/4"]]}'
LAW_1D_B = '{"dim":1,"atoms":[[[0],"1/7"],[[1],"6/7"]]}'
LAW_2D = '{"dim":2,"atoms":[[[0,0],"1/5"],[[1,0],"2/5"],[[0,1],"3/10"],[[-1,-1],"1/10"]]}'
LAW_2D_B = '{"dim":2,"atoms":[[[0,0],"1/3"],[[0,2],"1/3"],[[1,1],"1/3"]]}'
CAPPED = '{"dim":1,"atoms":[[[0],"1/3"],[[2],"1/3"],[[5],"1/3"]]}'

INPUTS = {
    "law1": LAW_1D,
    "law2": LAW_2D,
    "pair1": f"[{LAW_1D},{LAW_1D_B}]",
    "pair2": f"[{LAW_2D},{LAW_2D_B}]",
    "triple1": f"[{LAW_1D},{LAW_1D},{LAW_1D_B}]",
    "capped": f"[{CAPPED},{LAW_1D},{CAPPED},{LAW_1D}]",
    "birnbaum": '[{"dim":1,"atoms":[[[-2],"1/6"],[[-1],"1/6"],[[0],"1/3"],[[1],"1/6"],[[2],"1/6"]]},'
                '{"dim":1,"atoms":[[[-1],"1/4"],[[0],"1/2"],[[1],"1/4"]]},'
                '{"dim":1,"atoms":[[[-1],"1/5"],[[0],"3/5"],[[1],"1/5"]]}]',
    "seqs": '[["1/5","1/2","3/10"],["1/4","1/2","1/4"],["1/3","1/3","1/3"]]',
    "mixed": '{"dim":1,"atoms":[[[0],"1/2"],[[1],"1/4"],[[2],"1/8"],[[5],"1/8"]]}',
    "short": '{"dim":1,"atoms":[[[0],"1/3"],[[1],"1/3"]]}',
    "seq": '[["1/5","1/2","3/10"]]',
}

GOLDEN = {
    "scan kphase --n 31 --grid 512":
        "0838ecc8ef096f4e8a5fb4f8067db229bc11de2208ec363c344880e1f6e64e1d",
    "scan kphase --n 9 --grid 16 --format json":
        "99b1ec2ffdb9b2745371b0e5ee61486af41fe3224548daa4de2a32875d15dbbc",
    "scan kphase --n 101 --grid 64":
        "4c557c5b0efb9148f01aef5eb18568a9559fab9b418b0db18486c81dbed5d103",
    "scan kphase --n 201 --grid 16 --format json":
        "cc14cdd224476e4524b36f1c9645b7495667b4770691d1d88dfbe381a53907fd",
    "scan kphase --n 4 --grid 4":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "scan signs --in {law2} --n 3":
        "19b17a2e20aa974732ec673be3e905b44fb75e66fe7b1338060eb1345f8ad496",
    "scan signs --in {law2} --n 3 --x 1,0":
        "096e68b58e0ace0ce8e30cbd131b01498bb7b948d79cba2d9d4f9c07f19b5523",
    "scan signs --in {law1} --n 4":
        "be6db08947ddd415964fb3fa30fbc30d171e712c234123b0dd038fee968d08b7",
    "scan weights --in {law1} --n 3":
        "44a0711677087d1f4ac7be40c24db81f1ffb028282ba9f252b4710d6c5a6ccb8",
    "family binom --n 12 --p 1/3":
        "b642f80385bc0aefffb0175d2dbc97b9418111ef2b38b55456718fed9f836c40",
    "family binom --n 40 --p 7/9":
        "c58795bc2f2dd1414279fb96eaa722029604ffd9f0414325699e1a3bd76afd45",
    "family tn --n 9 --p 1/3":
        "6e20094484fab7d182f434dc12d9039deb56fa7292c5af95ba02107218ca1664",
    "family tn --n 24 --p 2/5":
        "aa7baaa4d153b8978c038d3061459d354533ae219e4337a78ffa9879240aa94f",
    "family ualpha --alpha 2/7":
        "4cd72abd127fb4cf9496ed3b075d7fd28b48b85b5634bd7ad4731e740cabd4e5",
    "dist q --in {law1}":
        "c7bfbe511fbcb48c38028f697a7d2cce528e7c859d66f6d9a258ac6b784c42fe",
    "dist q --in {law2}":
        "b795f8931d34f22465f6e5dd3b0809701d9e8e065872d5985b643b09e6f68df7",
    "dist atom --in {law1} --x 1":
        "4e199e2f6df4ce86f787080c108772b6ef849e9c25e66f35715f40a6c98cbfd3",
    "dist atom --in {law2} --x 0,1":
        "0a514904032eeeafea1c60d18342e9668a2470052c3b9024c2fc058d69bf555a",
    "dist conv --in {pair1}":
        "4a39229f58f5f209a4f9b9cad3b27a1f0dec7b66b04f922c408cd20d5eb7f792",
    "dist conv --in {pair2}":
        "3610e99fa7a9b4137ee8ec847d9105531cac91156a582602a2c257250d323a15",
    "dist q --in {short}":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "decompose --in {law1} --alpha 1/3":
        "bc529f37ff08be5d16453b6146526e78799fc24f597a67d2dc8213b59e62df54",
    "decompose --in {mixed} --alpha 1/2":
        "4afcfae07be6ae0f66a4eab9a1f4d4d89a43058f9643c7114c1d048232f94a3a",
    "rearrange left --values 1/10,1/5,2/5,1/5,1/10":
        "4c4044944a799b1c7e5ebfe94a52b4a26144284fabcffaa997591b48594b02ab",
    "rearrange right --values 1/5,2/5,1/10,1/2,3/10":
        "67bcd1616811ff94a678cf6be468b52c090744925530cdf0c5866a85e8228ecf",
    "rearrange sym --values 1/5,2/5,1/10,1/5,1/10":
        "4c4044944a799b1c7e5ebfe94a52b4a26144284fabcffaa997591b48594b02ab",
    "rearrange left --in {seq}":
        "e2a7d73ab830b113f6e7856f724b37d0bd3e662ab62be79a4bd9ee6c47a166c2",
    "rearrange sym --values 1/5,1/2,3/10":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "check theorem2 --trials 20 --seed 3":
        "30d730dababa800e156a2d8642628f954c91a53ed13d6ca520102f19c75fd25d",
    "check balancing --trials 20 --seed 3":
        "30d730dababa800e156a2d8642628f954c91a53ed13d6ca520102f19c75fd25d",
    "check monotone --trials 20 --seed 3":
        "30d730dababa800e156a2d8642628f954c91a53ed13d6ca520102f19c75fd25d",
    "check birnbaum --trials 20 --seed 3":
        "30d730dababa800e156a2d8642628f954c91a53ed13d6ca520102f19c75fd25d",
    "check gabriel --trials 20 --seed 3":
        "30d730dababa800e156a2d8642628f954c91a53ed13d6ca520102f19c75fd25d",
    "check theorem2 --in {capped} --alpha 1/3 --x 5":
        "aae91ad06b63489f3f8d973bffc645d96e2f93ea70fc9b43efa0b25d7d967b67",
    "check balancing --in {capped} --x 5":
        "7052cbcfd1a0c68ec253d7ad2690db4ca07485e93d45a415fcbf2c5b4aab157a",
    "check monotone --in {triple1}":
        "4ed203de9edd748f75d29bed46d918672ef2b91e8f4d8d2b3fe45055263b0013",
    "check birnbaum --in {birnbaum} --k 1":
        "c7b5bde193183dff618c4c49683a41d77c4a04a5ff8232ba111e5ab981fcf3c3",
    "check gabriel --in {seqs}":
        "fdaeb1380decf69d8554eeec7aed5fb3fa31ac4435efdfc9e771f83962b14e07",
    "asym corollary2 --n 33 --alpha 2/7":
        "eee18e93f7ceec4efe1398ebc0b41c13efe92bf20c178b492d893efe5387e0ca",
    "asym tnzero --n 64 --p 1/3":
        "abb2815d36ea401f5452a042005b588594826ce69b67cb6b92e8f71978e75edb",
    "asym smalldev --n 20 --p 1/4 --k 2":
        "4bb52833532ef21c62c7d43a8223f6d2c8275ecac5edb430919c2baa2fc00328",
    "asym largeodd --m 10 --p 1/3":
        "70e003a8cffa7f5cf9dc908b8c9656e45fe26c1b0624acb161ebc83ad9c6083e",
    "asym tnzero --n 64 --p 1/3 --format json":
        "c3651a8af5f4584764c1011360117d0952f8071d3c1614b939b1f0836ec20317",
    "asym largeodd --m 10 --p 1/3 --format json":
        "c99a96c273d421f8bde6e87ee31a15cef3d254c8e8f76f30dee18dcdc3a04d1b",
}


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("command", GOLDEN)
def test_golden_output(command, tmp_path, capsys):
    paths = {}
    for name, text in INPUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    code = main(command.format(**paths).split())
    assert digest(code, capsys.readouterr().out) == GOLDEN[command]
