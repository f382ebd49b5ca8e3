package wire

import "encoding/json"

// This file is the node-to-node slice of the protocol: the messages the
// router tier, the per-region workers, and the journal-shipping standbys
// exchange. A node opens with the same hello as a device; the payloads
// below have no
// hand-rolled binary encoders, so they ride the binary frame's JSON
// fallback byte — cheap enough for control traffic, and forward
// compatible for free.
//
// Topology (DESIGN.md §14):
//
//	worker  --link-->    router   one connection per enrolled node, dialled
//	                              by the node. Stream 0 is control: the
//	                              node_hello, then the router's ping and
//	                              promote. Every other stream is a relayed
//	                              device or CAS session (see Link); a
//	                              re-home's export and import ride the
//	                              device's own streams.
//	standby --attach-->  primary  the primary ships its snapshot, then
//	                              streams journal records as they append.

// RoleNode identifies a cluster peer in the Hello exchange: a node
// enrolling with the router, whose connection then speaks the binary
// codec with Link framing, or a standby attaching to a primary for
// replication.
const RoleNode Role = "node"

// Node-to-node message types.
const (
	// TypeNodeHello identifies a node link right after the Hello
	// exchange: who the node is, which region it serves, and in which
	// role. Router links (on stream 0) and replication links both start
	// with it.
	TypeNodeHello MsgType = "node_hello"
	// TypeNodePing is the router's link health probe, on stream 0; the
	// node replies with a plain Ack.
	TypeNodePing MsgType = "node_ping"
	// TypeExportDevice asks a worker to remove a device from its core
	// and return the record — the sending half of cross-node re-homing.
	// The router sends it on the device's stream, after every frame the
	// device sent before it, and it unbinds that stream. The reply echoes
	// the type with Device filled in.
	TypeExportDevice MsgType = "export_device"
	// TypeImportDevice hands a worker an exported device record to
	// restore — the receiving half of cross-node re-homing. It is the
	// first request on the device's stream at the new worker and binds
	// that stream to the device, without the registration defaults a
	// register would write over the record's fairness and liveness.
	TypeImportDevice MsgType = "import_device"
	// TypePromote tells a standby to take over its region: finish
	// replication, recover the shipped state, and enroll as primary.
	TypePromote MsgType = "promote"
	// TypeSnapshotShip carries one full snapshot payload, or one part of
	// it, to a standby (on attach, and again on every primary snapshot
	// commit).
	TypeSnapshotShip MsgType = "snapshot_ship"
	// TypeJournalShip streams one journal record to a standby as the
	// primary appends it.
	TypeJournalShip MsgType = "journal_ship"
	// TypeStreamClose ends one stream of a link, from either side. It
	// carries no payload; the stream id says which.
	TypeStreamClose MsgType = "stream_close"
)

// Node roles in a NodeHello.
const (
	// NodeRolePrimary is a region worker enrolling to serve traffic.
	NodeRolePrimary = "primary"
	// NodeRoleStandby is a warm spare enrolling with the router so it
	// can be promoted when the primary dies.
	NodeRoleStandby = "standby"
	// NodeRoleReplica is a standby attaching to its primary's listener
	// for snapshot and journal shipping.
	NodeRoleReplica = "replica"
)

// NodeHello identifies a node link. On a router link it enrolls the
// node into the region registry; on a primary's listener it requests
// replication.
type NodeHello struct {
	// NodeID names the node for logs and the registry ("west-1").
	NodeID string `json:"node_id"`
	// Region is the region this node serves.
	Region string `json:"region"`
	// NodeRole is NodeRolePrimary, NodeRoleStandby, or NodeRoleReplica.
	NodeRole string `json:"node_role"`
	// Lat/Lon/RadiusM describe the region's coverage circle; the router
	// routes devices and tasks by it. Replication links leave it zero.
	Lat     float64 `json:"lat,omitempty"`
	Lon     float64 `json:"lon,omitempty"`
	RadiusM float64 `json:"radius_m,omitempty"`
}

// ExportDevice is both the request (DeviceID set) and the reply (Device
// set) of the export half of re-homing. Device is the core's DeviceState
// record as JSON — the wire layer ships it opaquely, exactly as the
// journal's restore records do.
type ExportDevice struct {
	DeviceID string          `json:"device_id"`
	Device   json.RawMessage `json:"device,omitempty"`
}

// ImportDevice hands an exported record to the destination worker.
type ImportDevice struct {
	Device json.RawMessage `json:"device"`
}

// Promote orders a standby to take over a region.
type Promote struct {
	Region string `json:"region"`
}

// SnapshotShip carries one store's full snapshot payload (the primary's
// exact bytes, CRC'd again on the standby's disk). A snapshot too large
// for one frame travels in parts: Part counts them from 1, Chunk holds
// each one's bytes and Last marks the final one, after which the standby
// commits the whole. Part 0 is a whole snapshot in Payload — the only
// form before parts existed, which still decodes as it always did.
type SnapshotShip struct {
	// Store names the state store ("core", or the region name on a
	// sharded worker).
	Store   string          `json:"store"`
	Payload json.RawMessage `json:"payload"`
	Part    int             `json:"part,omitempty"`
	Last    bool            `json:"last,omitempty"`
	Chunk   []byte          `json:"chunk,omitempty"`
}

// JournalShip streams one journal record to a standby.
type JournalShip struct {
	Store  string          `json:"store"`
	Record json.RawMessage `json:"record"`
}
