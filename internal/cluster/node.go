package cluster

// NewNodeHandler: the HTTP surface of one cluster node — the catalog's route
// table (queries, admin, replication source endpoints) plus the
// cluster-control endpoints as three more rows, and, on followers, the
// write fence: replicated state must only change through the replication
// stream, or the follower's cursor would lie.

import (
	"net/http"

	"repro/internal/catalog"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/httpapi"
)

// NewNodeHandler returns the serving surface of a cluster node over cat:
// the catalog routes plus /admin/replication, /admin/promote and
// /admin/follow. fol is nil on a node born primary; on a follower it
// supplies the replication status, the promotion switch, and the fence that
// refuses the catalog's write routes (each would fork the replica away from
// the primary's history) until promotion. Every response echoes the
// request's X-Request-ID.
func NewNodeHandler(cat *catalog.Catalog, base engine.Config, fol *Follower) http.Handler {
	return httpapi.New(nodeRoutes(cat, base, fol), func() error {
		if fol != nil && !fol.Promoted() {
			return cserr.Invalidf("node is a follower of %s; write through the primary", fol.Primary())
		}
		return nil
	})
}

// nodeRoutes is the node's full route table.
func nodeRoutes(cat *catalog.Catalog, base engine.Config, fol *Follower) []httpapi.Route {
	status := func(w http.ResponseWriter, _ *http.Request) error {
		httpapi.WriteJSON(w, http.StatusOK, nodeStatus(cat, fol))
		return nil
	}
	return append(httpapi.CatalogRoutes(cat, base),
		httpapi.Route{Method: http.MethodGet, Path: ReplicationPath, Handler: status},
		httpapi.Route{Method: http.MethodPost, Path: PromotePath, Handler: func(w http.ResponseWriter, r *http.Request) error {
			if fol != nil {
				fol.Promote()
			}
			return status(w, r)
		}},
		httpapi.Route{Method: http.MethodPost, Path: FollowPath, Handler: func(w http.ResponseWriter, r *http.Request) error {
			if fol == nil || fol.Promoted() {
				httpapi.WriteError(w, http.StatusConflict,
					cserr.Invalidf("node is a primary; it cannot follow"))
				return nil
			}
			var req followRequest
			if err := httpapi.DecodeJSONBody(w, r, &req); err != nil {
				return err
			}
			if req.Primary == "" {
				return cserr.Invalidf(`need "primary"`)
			}
			fol.SetPrimary(req.Primary)
			return status(w, r)
		}},
	)
}

// nodeStatus builds the node's NodeStatus: the follower's cursor view when
// replicating, the catalog's own replication info when primary.
func nodeStatus(cat *catalog.Catalog, fol *Follower) NodeStatus {
	if fol != nil && !fol.Promoted() {
		backoff, fails := fol.SyncBackoff()
		return NodeStatus{
			Role: RoleFollower, Primary: fol.Primary(), Datasets: fol.Status(),
			SyncFailures: fails, SyncBackoffMS: backoff.Milliseconds(),
		}
	}
	infos := cat.ReplicationInfos()
	datasets := make([]ReplicaStatus, len(infos))
	for i, info := range infos {
		datasets[i] = ReplicaStatus{
			Graph:      info.Graph,
			Version:    info.Version,
			Lineage:    info.Lineage,
			JournalSeq: info.JournalSeq,
		}
		if info.Broken {
			datasets[i].LastError = "journal has a durability hole; compact to heal it"
		}
	}
	return NodeStatus{Role: RolePrimary, Datasets: datasets}
}
