"""The sha256 pins of the htgroth command line: (argv, sha256 of its stdout).

Data only.  ``tests/test_cli.py`` runs each argv in-process through
``cli.main``, and the "Installed entry point" step of
``.github/workflows/tests.yml`` runs each through the installed ``htgroth``
script under the hash seeds random, 0 and 12345; the reason for each pin is
given in that step.
"""

CI_PINS = [
    (
        [
            "cohomology", "--profile",
            '[{"cuspidal": "ρ[u=0]", "s": 2, "t": 2, "xi_numerator": 1, "mult": "2*m0*dxi"}, {"cuspidal": "ρ[u=0]", "s": 3, "t": 1, "xi_numerator": -3}]',
            "--pi", "ρ[u=0]", "--r", "2", "--extension", "intermediate",
        ],
        "5fb42f9eb4f72e4fb15019cbf8f904fa57b2c42820ffb389218f2752568e39f1",
    ),
    (
        ["cohomology", "--profile", '[{"cuspidal": "pi", "s": 2, "t": 1}]', "--pi", "pi", "--r", "5"],
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ),
    (
        [
            "cohomology", "--profile",
            '[{"cuspidal": "pi", "s": 2, "t": 3}, {"cuspidal": "pi", "s": 2, "t": 3, "xi_numerator": 2, "mult": "m"}, {"cuspidal": "pi", "s": 2, "t": 3, "xi_numerator": -2, "mult": "n*dxi"}, {"cuspidal": "pi", "s": 2, "t": 3, "mult": "2*m"}]',
            "--pi", "pi", "--r", "2", "--extension", "shriek",
        ],
        "a21efe7b0e943b498ae2dc8155ea809ca83455c1a4b862d354a33e0501284901",
    ),
    (["red", "--s", "3", "--t", "2", "--r", "2"], "7871e8be893021af5956960df7ac58ddfb93ee65ea19af92708941124d45c310"),
    (["reduce", "--u", "0", "--s", "3"], "81822d2db9eafc1b919358a63ea4b8cc9ea817efb0de4e1b322ff5bad35c9bb1"),
    (
        ["reduce", "--division", "--m-tau", "3", "--iota", "ι"],
        "24493fdf474fce2b93d592680d786e7252b517c6846c6515e77f184471ea4037",
    ),
    (
        [
            "balance", "--sc", '{"id": "rho", "g": 1, "q": 2, "l": 7, "epsilon": 3}',
            "--u", "-1", "--u-prime", "0", "--r", "3", "--r-prime", "1",
            "--profile-u",
            '[{"cuspidal": "rho[u=-1]", "s": 3, "t": 2, "xi_numerator": 1}, {"cuspidal": "rho[u=-1]", "s": 1, "t": 4, "xi_numerator": -3, "mult": "2*m"}, {"cuspidal": "rho[u=-1]", "s": 2, "t": 3, "markers": ["nondegenerate-at-auxiliary-place"]}, {"cuspidal": "sigma", "s": 2, "t": 1}]',
            "--profile-u-prime",
            '[{"cuspidal": "rho[u=0]", "s": 2, "t": 1, "xi_numerator": 3}, {"cuspidal": "rho[u=0]", "s": 1, "t": 2, "xi_numerator": -1}, {"cuspidal": "rho[u=0]", "s": 1, "t": 3, "xi_numerator": 2, "mult": "m"}]',
        ],
        "81359a64b803f9f8befe76881676e00d5a73426ca6ec58a773563823afd88a85",
    ),
    (
        [
            "cohomology", "--profile",
            '[{"cuspidal": "pi", "s": 3, "t": 2, "xi_numerator": 1, "mult": "3*μ^2*n"}, {"cuspidal": "pi", "s": 2, "t": 2, "xi_numerator": -2, "mult": "m^3"}, {"cuspidal": "pi", "s": 1, "t": 3, "mult": "2*m*dxi + μ"}]',
            "--pi", "pi", "--r", "2", "--extension", "intermediate",
        ],
        "c87b8b087e23abc3464c554e151c2643320650885da2eb979d7d2e155c6809da",
    ),
    (["red", "--s", "4", "--t", "3", "--r", "3"], "497db07d82b3ba8ce389a78b7ccf7353521ba7abfd01982b9c62e31a338c9fa7"),
    *(
        (
            [
                "cohomology", "--profile",
                '[{"cuspidal": "pi", "s": 2, "t": 2, "xi_numerator": 2}, {"cuspidal": "pi", "s": 2, "t": 2, "mult": "-1*n"}]',
                "--pi", "pi", "--r", "2", "--extension", extension,
            ],
            digest,
        )
        for extension, digest in (
            ("intermediate", "ca817d17eca56561dd357a6c4742d4918536e113bdbb32086360670687061d2c"),
            ("shriek", "ee9ea0214eddf6fefe51ddd0dee3b61d353fd7a39c8294d29369b4cca5d3987c"),
        )
    ),
]
