"""Golden SHA-256 digests of generated instance documents.

One digest per model, space kind and flag setting that ``pcg gen`` accepts,
each over seeds 0-2.  The flags vary only where the model reads them:
``player_specific`` and ``consistent`` for the priority model,
``consistent`` for the classic one; affine priorities are always
consistent, and market documents carry neither.  Any change in how the
generator draws spaces, grounds, priorities or delays shows up here.
"""

import hashlib
import json

import pytest

from prioritygames.generator import SPACE_KINDS, GenParams, generate_random_instance

FLAGS = {
    "priority": ("", "consistent", "player_specific", "consistent+player_specific"),
    "classic": ("", "consistent"),
    "affine": ("",),
    "market": ("",),
}

CASES = [
    f"{model}/{kind}/{flags}".rstrip("/")
    for model, settings in FLAGS.items()
    for kind in SPACE_KINDS
    for flags in settings
]

DIGESTS = {
    "priority/singleton": "f3eed18726207fe6b5a02b7d57e907a0c69609310da80216ea976452add694d5",
    "priority/singleton/consistent": "fbb5e976331e65b1ed9c3a831d07c02c006f7fb8a5b7174dd51e073f54747a99",
    "priority/singleton/player_specific": "71bff3d1c7c3d520cefdf6312be7240ae99bb6f912a81f4149e46b615d53d0d1",
    "priority/singleton/consistent+player_specific": "e15ee315cb5123a34ff9b7922ff35da04771e5c0a88438a5c4357153e45d6fe0",
    "priority/explicit": "46e90e370bd7a6aac5ecfffcec0ade28e22480f9718ae667db8c749dba1b159a",
    "priority/explicit/consistent": "904334c5a7c77db90365e8a602c5ebfda4af9a23f100bf0cbfabb28acaab0e34",
    "priority/explicit/player_specific": "d610a74779938b9b79dde32374ddfe22cd8b7b7f183fa44e8b719352b778eecd",
    "priority/explicit/consistent+player_specific": "f7a62e7e58e55af791f65787d8b74eb4d9a1bed2f0a5a8d629d49d37e906a077",
    "priority/uniform": "06a6d116487138eb905d6b6efa3c455a7d4ed62e34a10ed2391ccb86c1026c6f",
    "priority/uniform/consistent": "9dc1969b77f83e66de1b0ea8d1b6b36a68fce7bd17313a9e94efca0f78ff4698",
    "priority/uniform/player_specific": "3cd0af326ba982cf14c426b92e428d5ba3486190df4c0883c4b8190c18b10805",
    "priority/uniform/consistent+player_specific": "0e2488f0475068c5de987047483d4392d83b0a30f5aa9d8950f5da7caef58591",
    "priority/partition": "f298ceb9dc060947d64ca317991376a360ee56c428c3be9e5491bd036e838b69",
    "priority/partition/consistent": "79cd228a229ed9ddc01c986f8e60e12b1f8ec2933087dd35022bca3758656d1d",
    "priority/partition/player_specific": "3f5f5f7a67c81a92f34d9caa0d66847cbba52e5de03b473369682b5c024726df",
    "priority/partition/consistent+player_specific": "9d71be072ef214a8a4fa0dc0ae35b282e2391d7d81519b121e5ccbd7148d2a9e",
    "priority/graphic": "8ffbeff577131e0b632b69446bb3729fbcb1c77fe350d05c062bc2bf0810498b",
    "priority/graphic/consistent": "ba493973ecace27f2a97c8c67c4cb7498aa84239626b8d9afea045093c7fcd73",
    "priority/graphic/player_specific": "af09fee86ee38e0cea6a0bbb4dde8a97f73faaf395f20f67e414c6075572fd4b",
    "priority/graphic/consistent+player_specific": "23d4a574b1429f422240615b607d1f0848d8572044c0711b70be7bf82b4a11fe",
    "priority/mixed": "e0b1999fd4438898bf848e1e1a38cc4dc84aaf66323a5c316d4680a969d4b22e",
    "priority/mixed/consistent": "f82c5de207234455432f21ab307b6b21ad2b74c1943144bcdceb759aae15c4c8",
    "priority/mixed/player_specific": "d9121007060ef03bc44b02cf111105a574568609926260fbf14d22787d5edcc8",
    "priority/mixed/consistent+player_specific": "a7d70ae54fbaa7f51e01b0b2c76369d2cf9a4b1838fb768976272456640ae1bc",
    "classic/singleton": "6b9b7e7d1e87e669d98a0ef316c9fdda15bd0404ebd76d23802973ee55c76b57",
    "classic/singleton/consistent": "d449e729e6ee2425c7794d9f5f556f5e8e3eec712dc5001cd43e15f8aa763db0",
    "classic/explicit": "bd73c352cbc617de5d4b335bffe308cbad0071f4b8456b439b424d5af18f895d",
    "classic/explicit/consistent": "fcec2963cbb6339b7d90ebacbe6a4353f6b81c750b7df31ad47f8930c533bcb4",
    "classic/uniform": "913c3a5593fe94708d7ec78763fccde9e1ef2aa20d552e6a5953d0ef4112d4d5",
    "classic/uniform/consistent": "a0c013b64ea7fb832e094c318fd732a183132a2aba6f6e48e1cd23aa8420e342",
    "classic/partition": "9f2ab1aa21d1871712883eccbea7e49c83288ed10cd29996cdc38aebd2b884b4",
    "classic/partition/consistent": "dbd0e4fd7c8f173806b915b780bb31e3a053dc832c49bb2ffeff729996c8c56d",
    "classic/graphic": "f0eb7e53e35a1b87d7a3ac4df4d7f7f9742117d3a9098ffe0a4b75a2e0d5d115",
    "classic/graphic/consistent": "2b1fe7188049c98ebcd69b097dc419d4d6f130c3cc63a6a45858ea2625159e89",
    "classic/mixed": "37e4119903a0443b703db4689bae8e0237c7e86626b342b3bd419a2c7161d59a",
    "classic/mixed/consistent": "3d20cb513923d9e9c2f8f027feaf1465fcf7de5f788c2e918ed01d128aff0969",
    "affine/singleton": "e6bf36d8aa0da9226cd5d8c39d2bce5222b1e387f91c9b42d4feca715a28c933",
    "affine/explicit": "01be0413bf00138ee7a7de173b852861ef8f9249a74b2ff92374e82325a95162",
    "affine/uniform": "97488c3883e6db86abddc5b361dd510fdfc7d523fa4ad77187580193d6b4602d",
    "affine/partition": "9aa60c6630282e1e618341065ae04424c999b130ced726cc961c0d54fdc06b8b",
    "affine/graphic": "e1614ce107ee8e12817f4c33b9b3fec1d51e4802258fc8eeadccad78fce5e253",
    "affine/mixed": "95da6f993165cce8f6874a27c0403d0936abe5c8af24e5702887f5b668685636",
    "market/singleton": "33aa36796ae99c8c54f0b6816268a3956afa95534670bf8cc56499a897d3d692",
    "market/explicit": "98eeb2908e1aea0310e446a69ecb54a3f655d4910a92b5567b072ef99d230a5f",
    "market/uniform": "5e8238b03508a95f0091282ff1dde3d64aa2b286f65f6acf27131c45bb767137",
    "market/partition": "800042e2550b992381e763fad59601b81ea77ebb12225134183b3daada569d6d",
    "market/graphic": "8770f4bbf69c1ddcb64619141dae210e3374d6eca76366aa0efb4b29173e9a8b",
    "market/mixed": "8f8a169d1b606ade399a93f02ada77688e52bfbf90bf9c67cf6550874635fbff",
}


def document_bytes(case: str, seed: int) -> bytes:
    """The bytes ``pcg gen`` writes for the case at ``seed``."""
    model, kind, *flags = case.split("/")
    on = set(flags[0].split("+")) if flags else set()
    params = GenParams(
        players=5,
        resources=5,
        model=model,
        space_kind=kind,
        levels=3,
        consistent="consistent" in on,
        player_specific="player_specific" in on,
    )
    doc = generate_random_instance(params, seed)
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode()


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_generated_documents_are_byte_identical(case):
    h = hashlib.sha256()
    for seed in range(3):
        h.update(document_bytes(case, seed))
    assert h.hexdigest() == DIGESTS[case]
