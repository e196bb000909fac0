//! Report + alert digests recorded for known world seeds. The
//! determinism contract makes a digest independent of shard count, block
//! size and timing, so a pass over a recorded world must reproduce it
//! exactly; a traced run also checks that its untraced and traced passes
//! over the same world agree.

/// `(workload, tiny scale, world seed, digest)`.
const RECORDED: &[(&str, bool, u64, u64)] = &[
    ("dns_bulk", true, 192, 0x82f3_5cd5_b13f_fb6c),
    ("proxy_churn", true, 192, 0x75f0_a0dc_bef3_9211),
    ("serve_mixed", true, 192, 0xcb80_c409_eacc_e457),
    ("dns_bulk", false, 64, 0x1019_8992_917e_df5e),
    ("dns_bulk", false, 128, 0x0297_a478_3973_ef7d),
    ("dns_bulk", false, 192, 0x9fcb_fb1b_bb41_f44c),
    ("dns_bulk", false, 256, 0x4acf_3c23_3b13_92ae),
    ("dns_bulk", false, 320, 0x0a75_a50c_ba03_49bc),
    ("dns_bulk", false, 384, 0x6330_70e2_61c7_37a9),
    ("dns_bulk", false, 448, 0x6971_2676_0bbd_ecbb),
    ("dns_bulk", false, 512, 0xe57f_8343_f486_9bd8),
    ("dns_bulk", false, 576, 0xce13_ccfb_5905_4d1a),
    ("dns_bulk", false, 640, 0xbe49_b8e3_fa49_f69f),
    ("proxy_churn", false, 64, 0x79ff_18ae_7769_789d),
    ("proxy_churn", false, 128, 0x165b_fb5d_c87e_16b5),
    ("proxy_churn", false, 192, 0xef0e_9a0b_b091_7da6),
    ("proxy_churn", false, 256, 0x417e_0606_9bdc_e798),
    ("proxy_churn", false, 320, 0x1918_2ebf_41f6_c7db),
    ("proxy_churn", false, 384, 0x5ab4_86e6_2c74_5b92),
    ("proxy_churn", false, 448, 0x08ac_a90a_a77a_32cc),
    ("proxy_churn", false, 512, 0xe2b3_c471_e8fc_425a),
    ("proxy_churn", false, 576, 0xb333_afa3_c42f_e44a),
    ("proxy_churn", false, 640, 0x9371_dac2_f27d_8524),
    ("serve_mixed", false, 64, 0x79e0_ae6b_22cd_dcb0),
    ("serve_mixed", false, 128, 0x1aa1_0953_a2c5_8721),
    ("serve_mixed", false, 192, 0x513c_9238_8426_1e46),
    ("serve_mixed", false, 256, 0x697e_d605_4645_ab2d),
    ("serve_mixed", false, 320, 0xbb1a_7967_661e_1c3e),
    ("serve_mixed", false, 384, 0x1ace_fb29_d1e3_cd75),
    ("serve_mixed", false, 448, 0xa78f_2ddb_abf9_d1a4),
    ("serve_mixed", false, 512, 0xf929_6236_3414_8ef3),
    ("serve_mixed", false, 576, 0x29f2_3e0b_214f_e7a6),
    ("serve_mixed", false, 640, 0xbc29_edca_0850_d50a),
];

pub fn recorded(workload: &str, tiny: bool, seed: u64) -> Option<u64> {
    RECORDED.iter().find(|r| r.0 == workload && r.1 == tiny && r.2 == seed).map(|r| r.3)
}
