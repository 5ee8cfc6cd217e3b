package chaincode

import (
	"errors"
	"fmt"
	"strconv"
)

// okPayload backs the "OK" the sample chaincodes return on success.
// Each Invoke returns okPayload[:2:2], one slice shared by every call and
// read-only; the full slice expression ends its capacity with its bytes,
// so a caller's append copies instead of writing into the next caller's
// payload.
var okPayload = []byte("OK")

// KVStore is the benchmark chaincode from the paper's workload: "write"
// stores a value of the configured transaction size under a key, "read"
// returns it, "del" removes it. The paper sweeps the value ("transaction
// size") from 1 byte upward.
type KVStore struct {
	name string
}

var _ Chaincode = (*KVStore)(nil)

// NewKVStore creates the benchmark chaincode under the given installed
// name (the experiments use "bench").
func NewKVStore(name string) *KVStore { return &KVStore{name: name} }

// Name implements Chaincode.
func (c *KVStore) Name() string { return c.name }

// Invoke implements Chaincode.
func (c *KVStore) Invoke(stub Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "write":
		if len(args) != 2 {
			return nil, fmt.Errorf("kvstore write: want 2 args, got %d", len(args))
		}
		if err := stub.PutState(string(args[0]), args[1]); err != nil {
			return nil, err
		}
		return okPayload[:2:2], nil
	case "read":
		if len(args) != 1 {
			return nil, fmt.Errorf("kvstore read: want 1 arg, got %d", len(args))
		}
		v, err := stub.GetState(string(args[0]))
		if err != nil {
			return nil, err
		}
		return v, nil
	case "readwrite":
		// Read-modify-write on one key: generates both a read and a
		// write so MVCC conflicts are possible under contention.
		if len(args) != 2 {
			return nil, fmt.Errorf("kvstore readwrite: want 2 args, got %d", len(args))
		}
		if _, err := stub.GetState(string(args[0])); err != nil {
			return nil, err
		}
		if err := stub.PutState(string(args[0]), args[1]); err != nil {
			return nil, err
		}
		return okPayload[:2:2], nil
	case "del":
		if len(args) != 1 {
			return nil, fmt.Errorf("kvstore del: want 1 arg, got %d", len(args))
		}
		if err := stub.DelState(string(args[0])); err != nil {
			return nil, err
		}
		return okPayload[:2:2], nil
	default:
		return nil, fmt.Errorf("%w: kvstore %q", ErrUnknownFunction, fn)
	}
}

// ErrInsufficientFunds is returned by the money-transfer chaincode when
// the source account balance cannot cover the amount.
var ErrInsufficientFunds = errors.New("chaincode: insufficient funds")

// MoneyTransfer is the bank-account chaincode the paper's related-work
// section motivates: accounts with balances, transfers that read both
// accounts and write both, which exercises MVCC read-write conflicts
// under contention.
type MoneyTransfer struct {
	name string
}

var _ Chaincode = (*MoneyTransfer)(nil)

// NewMoneyTransfer creates the chaincode under the given installed name.
func NewMoneyTransfer(name string) *MoneyTransfer { return &MoneyTransfer{name: name} }

// Name implements Chaincode.
func (c *MoneyTransfer) Name() string { return c.name }

// Invoke implements Chaincode. Functions:
//
//	open <account> <balance>     create an account
//	transfer <from> <to> <amt>   move funds (fails on insufficient funds)
//	balance <account>            read a balance
func (c *MoneyTransfer) Invoke(stub Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "open":
		if len(args) != 2 {
			return nil, fmt.Errorf("moneytransfer open: want 2 args, got %d", len(args))
		}
		if _, err := strconv.ParseInt(string(args[1]), 10, 64); err != nil {
			return nil, fmt.Errorf("moneytransfer open: bad balance %q: %w", args[1], err)
		}
		if err := stub.PutState(string(args[0]), args[1]); err != nil {
			return nil, err
		}
		return okPayload[:2:2], nil
	case "transfer":
		if len(args) != 3 {
			return nil, fmt.Errorf("moneytransfer transfer: want 3 args, got %d", len(args))
		}
		from, to := string(args[0]), string(args[1])
		amt, err := strconv.ParseInt(string(args[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("moneytransfer transfer: bad amount %q: %w", args[2], err)
		}
		fromBal, err := c.balance(stub, from)
		if err != nil {
			return nil, err
		}
		toBal, err := c.balance(stub, to)
		if err != nil {
			return nil, err
		}
		if fromBal < amt {
			return nil, fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds, from, fromBal, amt)
		}
		if err := stub.PutState(from, []byte(strconv.FormatInt(fromBal-amt, 10))); err != nil {
			return nil, err
		}
		if err := stub.PutState(to, []byte(strconv.FormatInt(toBal+amt, 10))); err != nil {
			return nil, err
		}
		return okPayload[:2:2], nil
	case "balance":
		if len(args) != 1 {
			return nil, fmt.Errorf("moneytransfer balance: want 1 arg, got %d", len(args))
		}
		bal, err := c.balance(stub, string(args[0]))
		if err != nil {
			return nil, err
		}
		return []byte(strconv.FormatInt(bal, 10)), nil
	default:
		return nil, fmt.Errorf("%w: moneytransfer %q", ErrUnknownFunction, fn)
	}
}

func (c *MoneyTransfer) balance(stub Stub, account string) (int64, error) {
	v, err := stub.GetState(account)
	if err != nil {
		return 0, err
	}
	if v == nil {
		return 0, fmt.Errorf("moneytransfer: unknown account %q", account)
	}
	bal, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("moneytransfer: corrupt balance for %q: %w", account, err)
	}
	return bal, nil
}

// SmallBank is the contention benchmark chaincode modeled on the
// SmallBank OLTP suite (and its Fabric++/BlockBench ports): every
// account has a savings and a checking balance, and the operation mix
// is read-modify-write heavy, so a skewed account popularity produces
// exactly the intra-block MVCC conflicts conflict-aware ordering
// targets. Accounts are created lazily: a missing balance reads as
// DefaultBalance, which keeps workload generators free of a priming
// phase.
type SmallBank struct {
	name string
}

var _ Chaincode = (*SmallBank)(nil)

// DefaultBalance is the lazily materialized starting balance of every
// SmallBank account (both savings and checking).
const DefaultBalance int64 = 10000

// NewSmallBank creates the chaincode under the given installed name.
func NewSmallBank(name string) *SmallBank { return &SmallBank{name: name} }

// Name implements Chaincode.
func (c *SmallBank) Name() string { return c.name }

// Invoke implements Chaincode. Functions (amounts are base-10 ints):
//
//	deposit <acct> <amt>         add to checking (deposit_checking)
//	transact <acct> <amt>        add to savings (transact_savings)
//	writecheck <acct> <amt>      deduct a check from checking
//	sendpayment <from> <to> <amt>  move checking funds between accounts
//	amalgamate <from> <to>       fold from's balances into to's checking
//	query <acct>                 read savings + checking
func (c *SmallBank) Invoke(stub Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "deposit":
		acct, amt, err := c.acctAmt("deposit", args)
		if err != nil {
			return nil, err
		}
		return c.add(stub, checkingKey(acct), amt)
	case "transact":
		acct, amt, err := c.acctAmt("transact", args)
		if err != nil {
			return nil, err
		}
		return c.add(stub, savingsKey(acct), amt)
	case "writecheck":
		acct, amt, err := c.acctAmt("writecheck", args)
		if err != nil {
			return nil, err
		}
		// SmallBank semantics: the check clears against the combined
		// balance; overdraft incurs a penalty rather than failing.
		chkKey := checkingKey(acct)
		sav, err := c.balance(stub, savingsKey(acct))
		if err != nil {
			return nil, err
		}
		chk, err := c.balance(stub, chkKey)
		if err != nil {
			return nil, err
		}
		if sav+chk < amt {
			amt++ // overdraft penalty
		}
		return okPayload[:2:2], c.put(stub, chkKey, chk-amt)
	case "sendpayment":
		if len(args) != 3 {
			return nil, fmt.Errorf("smallbank sendpayment: want 3 args, got %d", len(args))
		}
		from, to := string(args[0]), string(args[1])
		amt, err := strconv.ParseInt(string(args[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("smallbank sendpayment: bad amount %q: %w", args[2], err)
		}
		fromKey, toKey := checkingKey(from), checkingKey(to)
		fromBal, err := c.balance(stub, fromKey)
		if err != nil {
			return nil, err
		}
		toBal, err := c.balance(stub, toKey)
		if err != nil {
			return nil, err
		}
		if fromBal < amt {
			return nil, fmt.Errorf("%w: %s checking has %d, needs %d", ErrInsufficientFunds, from, fromBal, amt)
		}
		if err := c.put(stub, fromKey, fromBal-amt); err != nil {
			return nil, err
		}
		return okPayload[:2:2], c.put(stub, toKey, toBal+amt)
	case "amalgamate":
		if len(args) != 2 {
			return nil, fmt.Errorf("smallbank amalgamate: want 2 args, got %d", len(args))
		}
		from, to := string(args[0]), string(args[1])
		savKey, chkKey, toKey := savingsKey(from), checkingKey(from), checkingKey(to)
		sav, err := c.balance(stub, savKey)
		if err != nil {
			return nil, err
		}
		chk, err := c.balance(stub, chkKey)
		if err != nil {
			return nil, err
		}
		toBal, err := c.balance(stub, toKey)
		if err != nil {
			return nil, err
		}
		if err := c.put(stub, savKey, 0); err != nil {
			return nil, err
		}
		if err := c.put(stub, chkKey, 0); err != nil {
			return nil, err
		}
		return okPayload[:2:2], c.put(stub, toKey, toBal+sav+chk)
	case "query":
		if len(args) != 1 {
			return nil, fmt.Errorf("smallbank query: want 1 arg, got %d", len(args))
		}
		acct := string(args[0])
		sav, err := c.balance(stub, savingsKey(acct))
		if err != nil {
			return nil, err
		}
		chk, err := c.balance(stub, checkingKey(acct))
		if err != nil {
			return nil, err
		}
		return []byte(strconv.FormatInt(sav+chk, 10)), nil
	default:
		return nil, fmt.Errorf("%w: smallbank %q", ErrUnknownFunction, fn)
	}
}

func savingsKey(acct string) string  { return "s:" + acct }
func checkingKey(acct string) string { return "c:" + acct }

func (c *SmallBank) acctAmt(fn string, args [][]byte) (string, int64, error) {
	if len(args) != 2 {
		return "", 0, fmt.Errorf("smallbank %s: want 2 args, got %d", fn, len(args))
	}
	amt, err := strconv.ParseInt(string(args[1]), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("smallbank %s: bad amount %q: %w", fn, args[1], err)
	}
	return string(args[0]), amt, nil
}

// balance reads one balance, lazily defaulting missing accounts.
func (c *SmallBank) balance(stub Stub, key string) (int64, error) {
	v, err := stub.GetState(key)
	if err != nil {
		return 0, err
	}
	if v == nil {
		return DefaultBalance, nil
	}
	bal, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("smallbank: corrupt balance for %q: %w", key, err)
	}
	return bal, nil
}

// add is the read-modify-write all deposit-style ops share.
func (c *SmallBank) add(stub Stub, key string, amt int64) ([]byte, error) {
	bal, err := c.balance(stub, key)
	if err != nil {
		return nil, err
	}
	if err := c.put(stub, key, bal+amt); err != nil {
		return nil, err
	}
	return okPayload[:2:2], nil
}

func (c *SmallBank) put(stub Stub, key string, bal int64) error {
	return stub.PutState(key, strconv.AppendInt(nil, bal, 10))
}

// Counter is a minimal chaincode used by the quickstart example and
// tests: "inc" atomically increments a named counter, "get" reads it.
type Counter struct {
	name string
}

var _ Chaincode = (*Counter)(nil)

// NewCounter creates the chaincode under the given installed name.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name implements Chaincode.
func (c *Counter) Name() string { return c.name }

// Invoke implements Chaincode.
func (c *Counter) Invoke(stub Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "inc":
		if len(args) != 1 {
			return nil, fmt.Errorf("counter inc: want 1 arg, got %d", len(args))
		}
		key := string(args[0])
		cur := int64(0)
		if v, err := stub.GetState(key); err != nil {
			return nil, err
		} else if v != nil {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("counter: corrupt value for %q: %w", key, err)
			}
			cur = n
		}
		next := strconv.FormatInt(cur+1, 10)
		if err := stub.PutState(key, []byte(next)); err != nil {
			return nil, err
		}
		return []byte(next), nil
	case "get":
		if len(args) != 1 {
			return nil, fmt.Errorf("counter get: want 1 arg, got %d", len(args))
		}
		v, err := stub.GetState(string(args[0]))
		if err != nil {
			return nil, err
		}
		if v == nil {
			return []byte("0"), nil
		}
		return v, nil
	default:
		return nil, fmt.Errorf("%w: counter %q", ErrUnknownFunction, fn)
	}
}
