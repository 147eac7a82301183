"""Golden CLI invocations shared by the test suite and the regen script.

Each case is (golden file name, argv).  Invocations that write a report use
--out, so the golden holds the report bytes; the others capture stdout.
"""

STDOUT_CASES = [
    ("ks_1_0.txt", ["ks", "1,0"]),
    ("ks_0_0.txt", ["ks", "0,0"]),
    ("ks_2_0_k0_sing.txt", ["ks", "2,0", "--k", "0", "--part", "sing"]),
    ("ks_3_0_k1.txt", ["ks", "3,0", "--k", "1"]),
    ("eig_2_0_k0_b.txt", ["eig", "2,0", "--k", "0", "--route", "b"]),
    ("eig_1_1_k0_all.txt", ["eig", "1,1", "--k", "0", "--route", "all"]),
    ("eig_2_1_k1_json.txt", ["eig", "2,1", "--k", "1", "--route", "all", "--format", "json"]),
    ("deligne_1_1_t0.txt", ["deligne", "1,1", "--t", "0"]),
    ("deligne_1_0_t7.txt", ["deligne", "1,0", "--t", "7"]),
    ("deligne_0_0_t_half.txt", ["deligne", "0,0", "--t", "1/2"]),
    ("table_k1_s3.txt", ["table", "--k", "1", "--size-max", "3"]),
    ("table_k0_s2_csv.txt", ["table", "--k", "0", "--size-max", "2", "--format", "csv"]),
    ("ks_2_0_k0_json.txt", ["ks", "2,0", "--k", "0", "--format", "json"]),
    ("deligne_1_1_t0_json.txt", ["deligne", "1,1", "--t", "0", "--format", "json"]),
    ("table_k1_s3_json.txt", ["table", "--k", "1", "--size-max", "3", "--format", "json"]),
    ("eig_2_2_k1_oracle_json.txt", ["eig", "2,2", "--k", "1", "--route", "oracle", "--format", "json"]),
    ("ks_2_0_falling.txt", ["ks", "2,0", "--falling"]),
    ("eig_2_1_k1_falling.txt", ["eig", "2,1", "--k", "1", "--falling"]),
    ("deligne_2_1_tm2_falling.txt", ["deligne", "2,1", "--t", "-2", "--falling"]),
    ("ks_2_0_json.txt", ["ks", "2,0", "--format", "json"]),
    ("ks_3_0_k1_reg_falling_json.txt",
     ["ks", "3,0", "--k", "1", "--part", "reg", "--falling", "--format", "json"]),
]

REPORT_CASES = [
    (
        "verify_identity_e_n7.json",
        ["verify", "identity-e", "--N-max", "7", "--format", "json"],
    ),
    (
        "verify_capelli_k3_s8.json",
        ["verify", "capelli", "--k-max", "3", "--size-max", "8", "--format", "json"],
    ),
    (
        "verify_knop_sahi_s5.json",
        ["verify", "knop-sahi", "--size-max", "5", "--format", "json"],
    ),
    (
        "verify_deligne_s5_d4.json",
        ["verify", "deligne", "--size-max", "5", "--deligne-size-max", "4", "--format", "json"],
    ),
    (
        "verify_dougall_a4_b3.json",
        ["verify", "dougall", "--a-max", "4", "--bcd-max", "3", "--format", "json"],
    ),
    (
        # every bound flag and --t-list away from its default
        "verify_deligne_all_bounds.json",
        ["verify", "deligne", "--k-max", "2", "--size-max", "4", "--N-max", "3",
         "--psi-N-max", "2", "--deligne-size-max", "3", "--minpoly-d-max", "4",
         "--a-max", "2", "--bcd-max", "1", "--t-list", "0,1/2,-2", "--format", "json"],
    ),
    (
        "verify_dougall_small.csv",
        ["verify", "dougall", "--a-max", "2", "--bcd-max", "1", "--format", "csv"],
    ),
]
