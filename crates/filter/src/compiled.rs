//! Rule compilation: the flattened match arrays the hot path walks.
//!
//! `set_rules` happens at configuration time and on control-plane churn;
//! evaluation happens per packet. So compilation does all the work that
//! can be hoisted out of the packet path:
//!
//! * prefixes become precomputed `(net, mask)` word pairs — the match is
//!   two ANDs and two compares, no `Ipv4Addr` arithmetic;
//! * the list is sorted most-specific-first (`Reverse(src.len+dst.len)`,
//!   then insertion order), the same discipline `RouteTable` applies to
//!   routes, so the walk is first-match-wins over a dense array;
//! * protocol wildcards become an out-of-band sentinel in a `u16`, port
//!   wildcards a flag — no `Option` discriminants in the inner loop.
//!
//! The result is one flat `Vec` of POD records walked front to back: no
//! `Box<dyn>`, no indirection, no per-packet allocation.

use std::cmp::Reverse;

use crate::rule::{Action, PacketMeta, Rule};

/// Sentinel in the compiled protocol field: match any protocol.
const PROTO_ANY: u16 = 0x100;

/// One compiled rule: plain words, 28 bytes, no pointers.
#[derive(Debug, Clone, Copy)]
struct CompiledRule {
    src_net: u32,
    src_mask: u32,
    dst_net: u32,
    dst_mask: u32,
    port_lo: u16,
    port_hi: u16,
    /// `0..=255`, or [`PROTO_ANY`].
    proto: u16,
    /// True when the rule has no port constraint.
    port_wild: bool,
    action: Action,
}

/// What one full rule walk concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalkResult {
    /// The action of the most specific matching rule (or the default).
    pub action: Action,
    /// Index of the matching rule in compiled order, `u16::MAX` for the
    /// default action (the precedence tests read it).
    pub rule: u16,
}

/// The compiled, immutable-between-changes rule table.
#[derive(Debug, Default)]
pub(crate) struct CompiledRuleset {
    rules: Vec<CompiledRule>,
    default_action: Action,
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

impl CompiledRuleset {
    /// Compiles a rule list. Order-independent input: specificity (then
    /// original position) decides precedence, exactly like the route
    /// table.
    pub(crate) fn compile(rules: &[Rule], default_action: Action) -> CompiledRuleset {
        let mut order: Vec<(usize, &Rule)> = rules.iter().enumerate().collect();
        order.sort_by_key(|(seq, r)| (Reverse(r.specificity()), *seq));
        let rules = order
            .into_iter()
            .map(|(_, r)| {
                let (port_lo, port_hi, port_wild) = match r.dports {
                    Some((lo, hi)) => (lo, hi, false),
                    None => (0, u16::MAX, true),
                };
                CompiledRule {
                    src_net: u32::from(r.src.addr),
                    src_mask: mask(r.src.len),
                    dst_net: u32::from(r.dst.addr),
                    dst_mask: mask(r.dst.len),
                    port_lo,
                    port_hi,
                    proto: r.proto.map_or(PROTO_ANY, u16::from),
                    port_wild,
                    action: r.action,
                }
            })
            .collect();
        CompiledRuleset {
            rules,
            default_action,
        }
    }

    /// The full walk: first match over the specificity-sorted array.
    /// Every packet the gate admits takes it (the `filter_eval`
    /// ratchet's walk case).
    #[inline]
    pub(crate) fn walk(&self, m: &PacketMeta) -> WalkResult {
        for (i, r) in self.rules.iter().enumerate() {
            if (m.src & r.src_mask) != r.src_net
                || (m.dst & r.dst_mask) != r.dst_net
                || (r.proto != PROTO_ANY && r.proto != u16::from(m.proto))
                || !(r.port_wild || (m.has_port && m.dport >= r.port_lo && m.dport <= r.port_hi))
            {
                continue;
            }
            return WalkResult {
                action: r.action,
                rule: i as u16,
            };
        }
        WalkResult {
            action: self.default_action,
            rule: u16::MAX,
        }
    }

    /// Number of compiled rules.
    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    /// The action when nothing matches.
    pub(crate) fn default_action(&self) -> Action {
        self.default_action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::route::Prefix;
    use std::net::Ipv4Addr;

    fn meta(src: [u8; 4], dst: [u8; 4], proto: u8, dport: Option<u16>) -> PacketMeta {
        PacketMeta {
            src: u32::from(Ipv4Addr::from(src)),
            dst: u32::from(Ipv4Addr::from(dst)),
            proto,
            dport: dport.unwrap_or(0),
            has_port: dport.is_some(),
        }
    }

    #[test]
    fn specificity_beats_insertion_order() {
        // A broad allow inserted first, a /32 deny inserted later: the
        // deny must win, as a /32 route would beat a /8.
        let rules = [
            Rule::any(Action::Allow).from(Prefix::amprnet()),
            Rule::any(Action::Deny).from(Prefix::new(Ipv4Addr::new(44, 24, 0, 66), 32)),
        ];
        let c = CompiledRuleset::compile(&rules, Action::Allow);
        let w = c.walk(&meta([44, 24, 0, 66], [128, 95, 1, 4], 6, Some(25)));
        assert_eq!(w.action, Action::Deny);
        let w = c.walk(&meta([44, 24, 0, 5], [128, 95, 1, 4], 6, Some(25)));
        assert_eq!(w.action, Action::Allow);
    }

    #[test]
    fn equal_specificity_keeps_first_inserted() {
        let p = Prefix::new(Ipv4Addr::new(44, 24, 0, 0), 16);
        let rules = [
            Rule::any(Action::Deny).from(p),
            Rule::any(Action::Allow).from(p),
        ];
        let c = CompiledRuleset::compile(&rules, Action::Allow);
        let w = c.walk(&meta([44, 24, 0, 5], [128, 95, 1, 4], 17, None));
        assert_eq!(w.action, Action::Deny);
    }

    #[test]
    fn port_ranges_gate_the_match() {
        let rules = [Rule::any(Action::Deny).proto(6).dports(0, 1023)];
        let c = CompiledRuleset::compile(&rules, Action::Allow);
        // In range: denied.
        let w = c.walk(&meta([1, 2, 3, 4], [5, 6, 7, 8], 6, Some(23)));
        assert_eq!(w.action, Action::Deny);
        // Out of range: falls to default.
        let w = c.walk(&meta([1, 2, 3, 4], [5, 6, 7, 8], 6, Some(2049)));
        assert_eq!(w.action, Action::Allow);
        // Portless packet of the same protocol cannot match a port rule.
        let w = c.walk(&meta([1, 2, 3, 4], [5, 6, 7, 8], 6, None));
        assert_eq!(w.action, Action::Allow);
        // A different protocol never matches it either.
        let w = c.walk(&meta([1, 2, 3, 4], [5, 6, 7, 8], 1, None));
        assert_eq!(w.action, Action::Allow);
    }

    #[test]
    fn empty_table_is_the_default_action() {
        let c = CompiledRuleset::compile(&[], Action::Deny);
        let w = c.walk(&meta([9, 9, 9, 9], [8, 8, 8, 8], 17, Some(53)));
        assert_eq!((w.action, w.rule), (Action::Deny, u16::MAX));
    }
}
