package docstore

// Wire protocol between Client and Server: each connection carries a
// stream of gob-encoded requests and responses. One persistent gob
// encoder/decoder pair per connection amortizes type descriptors. The
// nine ops are the store's whole remote surface: ping, the one write (txn,
// an ApplyTxn batch of adds, updates and deletes), the reads (get, get
// many, find, find IDs, count and sample, whose queries are equality
// filters) and hash-index creation.
//
// Requests carry a connection-scoped sequence number and the server
// echoes it back on the matching response. The server serves a
// connection's requests one at a time, in order. Client keeps one request
// in flight per connection (acquire, encode, decode, release), takes its
// concurrency from its connection pool, and uses the echoed Seq to detect
// a desynchronized stream, whose connection it discards.

type reqOp uint8

// The ops keep the numbers they had when the wire also carried insert (2),
// insert many (3) and update (6): a peer that still sends one of those
// gets "docstore: unknown operation", never another op's answer.
const (
	opPing            reqOp = 1
	opGet             reqOp = 4
	opGetMany         reqOp = 5
	opFind            reqOp = 7
	opFindIDs         reqOp = 8
	opCount           reqOp = 9
	opSample          reqOp = 10
	opCreateHashIndex reqOp = 11
	opTxn             reqOp = 12
)

// opName maps wire ops to the lowercase_snake names used as metric label
// values by Client.Instrument hooks.
func (op reqOp) opName() string {
	switch op {
	case opPing:
		return "ping"
	case opGet:
		return "get"
	case opGetMany:
		return "get_many"
	case opFind:
		return "find"
	case opFindIDs:
		return "find_ids"
	case opCount:
		return "count"
	case opSample:
		return "sample"
	case opCreateHashIndex:
		return "create_hash_index"
	case opTxn:
		return "txn"
	default:
		return "unknown"
	}
}

// request is the client→server message.
type request struct {
	Seq        uint64
	Op         reqOp
	Collection string
	ID         string
	IDs        []string
	Query      Query
	N          int
	Seed       int64
	Field      string
	Ops        []TxnOp
}

// response is the server→client message. Err is empty on success, and
// Conflict marks an Err that wraps ErrConflict. Seq echoes the request's
// sequence number.
type response struct {
	Seq      uint64
	Err      string
	Conflict bool
	IDs      []string
	Docs     []Doc
	Count    int
}
