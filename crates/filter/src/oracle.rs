//! The executable reference spec: a naive first-match interpreter.
//!
//! Walks the *uncompiled* rule list for every packet — no sorting, no
//! flattening — scoring each rule with `Prefix::contains` and keeping
//! the most specific match (earliest
//! insertion on ties), exactly the discipline the compiled engine is
//! supposed to implement. The differential proptests pit
//! [`crate::FilterEngine`] against this over random tables, packet
//! streams, and mid-stream table swaps; any divergence is an engine bug
//! by definition, same as the scalar byte-kernel specs of PR 5.

use crate::rule::{Action, PacketMeta, Rule};

/// The interpreter.
#[derive(Debug, Clone)]
pub struct NaiveInterpreter {
    rules: Vec<Rule>,
    default_action: Action,
}

impl NaiveInterpreter {
    /// Builds the interpreter over an owned copy of the rules.
    pub fn new(rules: &[Rule], default_action: Action) -> NaiveInterpreter {
        NaiveInterpreter {
            rules: rules.to_vec(),
            default_action,
        }
    }

    /// Replaces the table (mirror of `FilterEngine::set_rules`).
    pub fn set_rules(&mut self, rules: &[Rule]) {
        self.rules = rules.to_vec();
    }

    /// Classifies one packet: the most specific matching rule's action,
    /// or the default.
    pub fn classify(&self, m: &PacketMeta) -> Action {
        let src = std::net::Ipv4Addr::from(m.src);
        let dst = std::net::Ipv4Addr::from(m.dst);
        let mut best: Option<(u16, Action)> = None;
        for r in &self.rules {
            if !r.src.contains(src) || !r.dst.contains(dst) {
                continue;
            }
            if let Some(p) = r.proto {
                if p != m.proto {
                    continue;
                }
            }
            if let Some((lo, hi)) = r.dports {
                if !(m.has_port && m.dport >= lo && m.dport <= hi) {
                    continue;
                }
            }
            let spec = r.specificity();
            // Strictly-greater keeps the earliest rule on ties, because
            // iteration is in insertion order.
            if best.is_none_or(|(b, _)| spec > b) {
                best = Some((spec, r.action));
            }
        }
        best.map_or(self.default_action, |(_, a)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::route::Prefix;
    use std::net::Ipv4Addr;

    #[test]
    fn most_specific_wins_regardless_of_position() {
        let rules = [
            Rule::any(Action::Allow).from(Prefix::amprnet()),
            Rule::any(Action::Deny).from(Prefix::new(Ipv4Addr::new(44, 24, 0, 66), 32)),
        ];
        let i = NaiveInterpreter::new(&rules, Action::Allow);
        let bad = PacketMeta {
            src: u32::from(Ipv4Addr::new(44, 24, 0, 66)),
            dst: u32::from(Ipv4Addr::new(128, 95, 1, 4)),
            proto: 6,
            dport: 25,
            has_port: true,
        };
        assert_eq!(i.classify(&bad), Action::Deny);
    }
}
