// Package cluster turns N querylearnd processes into one logical service.
//
// The topology is static: every node is started with the same -cluster-peers
// list (node id = advertised address) and its own -cluster-node id. Session
// ids map to owner nodes through a consistent-hash ring of virtual nodes;
// ids are minted by the owner itself (session.Config.NewID is pointed at
// Cluster.MintSessionID), so a create handled by any node always lands on a
// locally-owned id and never needs a redirect.
//
// Three cooperating pieces live here, wired around — not into — the HTTP
// server:
//
//   - Routing (router.go). Cluster.Router wraps the server's handler as
//     outer middleware. Requests for sessions another node owns are
//     307-redirected (the SDK follows, preserving the body and the
//     Idempotency-Key). Every response names the serving node in
//     X-Querylearn-Node.
//
//   - Journal shipping (follower.go, the ship handler in router.go). Every
//     node follows every peer: a long-polling GET /v1/cluster/ship streams
//     the owner's write-ahead journal as raw CRC-framed records (the store's
//     on-disk framing is the wire framing), and the follower folds them
//     through session.ApplyEvent — the same single replay rule recovery
//     uses — into a warm standby of the peer's sessions. Positions are
//     (epoch, gen, records): generations are only unique within one owner
//     boot, so each journal lifetime carries a random epoch, and a cursor
//     from another epoch — an owner that restarted underneath its
//     followers — forces a full resync from record 0 instead of silently
//     serving "continuity" out of a different file. The from_lsn the
//     follower presents doubles as its applied-cursor report, which the
//     owner's replication barrier (serveLocal) uses to hold each mutation's
//     2xx until every unfenced peer — probed or not yet — has applied it;
//     that is what makes "acknowledged" mean "survives the owner's death".
//     A report only counts once it is proven against the live epoch and
//     journal extent, and (when Config.Secret is set) the whole endpoint is
//     gated on a shared secret.
//
//   - Failover (prober.go). Each node probes its peers' /healthz; FailAfter
//     consecutive failures fence the peer — a permanent latch under the
//     static topology. Fencing seals the local follower and, under the
//     routing gate so no request can observe the rerouted ring early,
//     adopts exactly the subset of the dead node's sessions the ring now
//     assigns here (session.Manager.Adopt: journaled, trusted). Survivors
//     partition the dead node's sessions deterministically without talking
//     to each other.
//
// The package deliberately does not import internal/server; the server
// imports this package only for the Stats block it embeds in /healthz.
package cluster
