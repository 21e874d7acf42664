package docstore

// Wire protocol between Client and Server: each connection carries a
// stream of gob-encoded requests and responses. One persistent gob
// encoder/decoder pair per connection amortizes type descriptors. The ops
// are the store's whole remote surface: ping, the writes (insert, insert
// many, update and txn, which all commit through ApplyTxn), the reads
// (get, get many, find, find IDs, count and sample, whose queries are
// equality filters) and hash-index creation.
//
// Requests carry a connection-scoped sequence number and the server
// echoes it back on the matching response. The server serves a
// connection's requests one at a time, in order. Client keeps one request
// in flight per connection (acquire, encode, decode, release), takes its
// concurrency from its connection pool, and uses the echoed Seq to detect
// a desynchronized stream, whose connection it discards.

type reqOp uint8

const (
	opPing reqOp = iota + 1
	opInsert
	opInsertMany
	opGet
	opGetMany
	opUpdate
	opFind
	opFindIDs
	opCount
	opSample
	opCreateHashIndex
	opTxn
)

// opName maps wire ops to the lowercase_snake names used as metric label
// values by Client.Instrument hooks.
func (op reqOp) opName() string {
	switch op {
	case opPing:
		return "ping"
	case opInsert:
		return "insert"
	case opInsertMany:
		return "insert_many"
	case opGet:
		return "get"
	case opGetMany:
		return "get_many"
	case opUpdate:
		return "update"
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
	Fields     Fields
	Batch      []Fields
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
	ID       string
	IDs      []string
	Docs     []Doc
	Count    int
}
