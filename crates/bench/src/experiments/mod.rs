//! The registry: every experiment once, as `(id, module, paper §)`. The
//! module name is also the golden's file name (`results/<module>.txt`), so
//! an experiment cannot exist without the two agreeing.

use bench::report::Report;

/// One registered experiment.
pub struct Experiment {
    /// What `experiments <id>` answers to ("e4").
    pub id: &'static str,
    /// Its golden is `results/<golden>.txt`.
    pub golden: &'static str,
    /// The paper section it restates (DESIGN.md §4).
    pub section: &'static str,
    /// Runs it into a report.
    pub run: fn(&mut Report),
}

macro_rules! registry {
    ($(($id:literal, $module:ident, $section:literal),)*) => {
        $(mod $module;)*
        pub const REGISTRY: &[Experiment] = &[$(Experiment {
            id: $id,
            golden: stringify!($module),
            section: $section,
            run: $module::run,
        },)*];
    };
}

registry! {
    ("e1", e1_latency_breakdown, "§3 ¶1"),
    ("e2", e2_promiscuous_load, "§3 ¶2"),
    ("e3", e3_timeouts, "§4.1"),
    ("e4", e4_routing, "§4.2"),
    ("e5", e5_access_control, "§4.3"),
    ("e6", e6_services, "§2.3, §5"),
    ("e7", e7_digipeaters, "§1, §3"),
    ("e8", e8_appgw, "§2.4"),
    ("e9", e9_fragmentation, "§2.2"),
    ("e10", e10_csma_ablation, "§3"),
    ("e11", e11_netrom_backbone, "§2.4"),
    ("e12", e12_route_exchange, "§4.2"),
    ("e13", e13_vj_compression, "§2.2, §3"),
    ("e14", e14_sockets_dns, "§2.3, §5"),
    ("e15", e15_city_scale, "§5"),
    ("e16", e16_load_sweep, "§5"),
    ("e17", e17_filter_flood, "§4.3"),
    ("e18", e18_forwarding_plane, "§4.2"),
}
