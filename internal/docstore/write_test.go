package docstore

// The tests' one-op writes: each is an ApplyTxn transaction, the only
// write Collection and Client offer.

func insertDoc(c *Collection, id string, f Fields) (string, error) {
	ids, err := c.ApplyTxn([]TxnOp{{Kind: TxnAdd, ID: id, F: f}})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

func updateDoc(c *Collection, id string, f Fields) error {
	_, err := c.ApplyTxn([]TxnOp{{Kind: TxnUpdate, ID: id, F: f}})
	return err
}

func deleteDoc(c *Collection, id string) error {
	_, err := c.ApplyTxn([]TxnOp{{Kind: TxnDelete, ID: id}})
	return err
}

func sendInsert(cl *Client, collection, id string, f Fields) (string, error) {
	ids, err := cl.ApplyTxn(collection, []TxnOp{{Kind: TxnAdd, ID: id, F: f}})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

func sendInsertMany(cl *Client, collection string, batch []Fields) ([]string, error) {
	ops := make([]TxnOp, len(batch))
	for i, f := range batch {
		ops[i] = TxnOp{Kind: TxnAdd, F: f}
	}
	return cl.ApplyTxn(collection, ops)
}

func sendUpdate(cl *Client, collection, id string, f Fields) error {
	_, err := cl.ApplyTxn(collection, []TxnOp{{Kind: TxnUpdate, ID: id, F: f}})
	return err
}
