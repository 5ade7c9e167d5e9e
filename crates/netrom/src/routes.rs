//! Quality-based NET/ROM route selection with obsolescence aging.
//!
//! Classic NET/ROM semantics: a route's quality through a neighbour is
//! `neighbour_quality * reported_quality / 256`; the best-quality route
//! per destination wins; entries not re-advertised decay an
//! obsolescence counter and disappear.

use std::collections::BTreeMap;

use ax25::addr::Ax25Addr;

use crate::codec::NodesBroadcast;

/// Initial obsolescence count for a fresh route.
pub const OBSOLESCENCE_INIT: u8 = 6;
/// Routes below this quality are ignored entirely.
pub const MIN_QUALITY: u8 = 10;

/// One learned route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Next hop (a direct neighbour).
    pub neighbour: Ax25Addr,
    /// End-to-end quality 0–255.
    pub quality: u8,
    /// Decremented every broadcast interval; 0 = dead.
    pub obsolescence: u8,
    /// Alias of the destination, from its advertisement.
    pub alias: String,
}

/// The route table of one node.
#[derive(Debug, Default)]
pub struct NetRomRoutes {
    /// destination → candidate routes (one per neighbour), in callsign
    /// order.
    table: BTreeMap<Ax25Addr, Vec<Route>>,
}

impl NetRomRoutes {
    /// Creates an empty table.
    pub fn new() -> NetRomRoutes {
        NetRomRoutes::default()
    }

    /// Learns from a NODES broadcast heard directly from `neighbour`
    /// (whose link quality we rate `neighbour_quality`). `me` filters out
    /// advertisements of ourselves.
    pub fn update_from_broadcast(
        &mut self,
        me: Ax25Addr,
        neighbour: Ax25Addr,
        neighbour_quality: u8,
        bcast: &NodesBroadcast,
    ) {
        // The neighbour itself is reachable directly.
        self.upsert(
            neighbour,
            Route {
                neighbour,
                quality: neighbour_quality,
                obsolescence: OBSOLESCENCE_INIT,
                alias: bcast.sender_alias.clone(),
            },
        );
        for entry in &bcast.entries {
            if entry.dest == me {
                continue;
            }
            // Split-horizon-ish: an advertisement whose best neighbour is
            // us would loop straight back.
            if entry.best_neighbour == me {
                continue;
            }
            let quality = ((u16::from(neighbour_quality) * u16::from(entry.quality)) / 256) as u8;
            if quality < MIN_QUALITY {
                continue;
            }
            self.upsert(
                entry.dest,
                Route {
                    neighbour,
                    quality,
                    obsolescence: OBSOLESCENCE_INIT,
                    alias: entry.alias.clone(),
                },
            );
        }
    }

    fn upsert(&mut self, dest: Ax25Addr, route: Route) {
        let routes = self.table.entry(dest).or_default();
        if let Some(existing) = routes.iter_mut().find(|r| r.neighbour == route.neighbour) {
            *existing = route;
        } else {
            routes.push(route);
        }
        routes.sort_by(|a, b| {
            b.quality
                .cmp(&a.quality)
                .then(a.neighbour.cmp(&b.neighbour))
        });
    }

    /// The best route to `dest`, if any.
    pub fn best(&self, dest: Ax25Addr) -> Option<&Route> {
        self.table.get(&dest).and_then(|v| v.first())
    }

    /// Ages every route one broadcast interval; dead routes vanish.
    pub fn age(&mut self) {
        for routes in self.table.values_mut() {
            for r in routes.iter_mut() {
                r.obsolescence = r.obsolescence.saturating_sub(1);
            }
            routes.retain(|r| r.obsolescence > 0);
        }
        self.table.retain(|_, v| !v.is_empty());
    }

    /// Destinations currently reachable, sorted (deterministic for
    /// broadcasts).
    pub fn destinations(&self) -> Vec<Ax25Addr> {
        self.table.keys().copied().collect()
    }

    /// Number of reachable destinations.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no destinations are known.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::NodeEntry;

    fn a(s: &str) -> Ax25Addr {
        Ax25Addr::parse_or_panic(s)
    }

    fn bcast(alias: &str, entries: Vec<NodeEntry>) -> NodesBroadcast {
        NodesBroadcast {
            sender_alias: alias.into(),
            entries,
        }
    }

    #[test]
    fn neighbour_becomes_directly_reachable() {
        let mut rt = NetRomRoutes::new();
        rt.update_from_broadcast(a("ME"), a("NBR"), 200, &bcast("NBR", vec![]));
        let r = rt.best(a("NBR")).unwrap();
        assert_eq!(r.neighbour, a("NBR"));
        assert_eq!(r.quality, 200);
    }

    #[test]
    fn transitive_quality_multiplies() {
        let mut rt = NetRomRoutes::new();
        rt.update_from_broadcast(
            a("ME"),
            a("NBR"),
            192,
            &bcast(
                "NBR",
                vec![NodeEntry {
                    dest: a("FAR"),
                    alias: "FAR".into(),
                    best_neighbour: a("X"),
                    quality: 192,
                }],
            ),
        );
        // 192*192/256 = 144.
        assert_eq!(rt.best(a("FAR")).unwrap().quality, 144);
    }

    #[test]
    fn best_route_wins_between_neighbours() {
        let mut rt = NetRomRoutes::new();
        let entry = |q| NodeEntry {
            dest: a("FAR"),
            alias: "FAR".into(),
            best_neighbour: a("X"),
            quality: q,
        };
        rt.update_from_broadcast(a("ME"), a("N1"), 100, &bcast("N1", vec![entry(200)]));
        rt.update_from_broadcast(a("ME"), a("N2"), 250, &bcast("N2", vec![entry(200)]));
        assert_eq!(rt.best(a("FAR")).unwrap().neighbour, a("N2"));
    }

    #[test]
    fn own_advertisements_and_loops_are_ignored() {
        let mut rt = NetRomRoutes::new();
        rt.update_from_broadcast(
            a("ME"),
            a("NBR"),
            200,
            &bcast(
                "NBR",
                vec![
                    NodeEntry {
                        dest: a("ME"),
                        alias: "ME".into(),
                        best_neighbour: a("Q"),
                        quality: 255,
                    },
                    NodeEntry {
                        dest: a("LOOP"),
                        alias: "LP".into(),
                        best_neighbour: a("ME"),
                        quality: 255,
                    },
                ],
            ),
        );
        assert!(rt.best(a("ME")).is_none());
        assert!(rt.best(a("LOOP")).is_none());
    }

    #[test]
    fn low_quality_routes_are_dropped() {
        let mut rt = NetRomRoutes::new();
        rt.update_from_broadcast(
            a("ME"),
            a("NBR"),
            20,
            &bcast(
                "NBR",
                vec![NodeEntry {
                    dest: a("FAR"),
                    alias: "F".into(),
                    best_neighbour: a("X"),
                    quality: 50,
                }],
            ),
        );
        // 20*50/256 = 3 < MIN_QUALITY.
        assert!(rt.best(a("FAR")).is_none());
    }

    #[test]
    fn aging_expires_unrefreshed_routes() {
        let mut rt = NetRomRoutes::new();
        rt.update_from_broadcast(a("ME"), a("NBR"), 200, &bcast("NBR", vec![]));
        for _ in 0..OBSOLESCENCE_INIT {
            assert!(rt.best(a("NBR")).is_some());
            rt.age();
        }
        assert!(rt.best(a("NBR")).is_none());
        assert!(rt.is_empty());
    }

    #[test]
    fn refresh_resets_obsolescence() {
        let mut rt = NetRomRoutes::new();
        rt.update_from_broadcast(a("ME"), a("NBR"), 200, &bcast("NBR", vec![]));
        for _ in 0..20 {
            rt.age();
            rt.update_from_broadcast(a("ME"), a("NBR"), 200, &bcast("NBR", vec![]));
        }
        assert!(rt.best(a("NBR")).is_some());
    }
}
