type rw = Read | Write

type t = {
  rw : rw;
  mutable off : int;
  mutable resid : int;
  iov : Sim.Iov.t;
  mutable iov_off : int;
}

let of_iov ~rw ~off iov =
  if off < 0 then invalid_arg "Uio.make: negative off/len";
  { rw; off; resid = Sim.Iov.length iov; iov; iov_off = 0 }

let make ~rw ~off ~len ~buf ~buf_off =
  if off < 0 || len < 0 then invalid_arg "Uio.make: negative off/len";
  if buf_off < 0 || buf_off + len > Bytes.length buf then
    invalid_arg "Uio.make: buffer window out of range";
  of_iov ~rw ~off (Sim.Iov.of_bytes ~off:buf_off ~len buf)

let done_ t = t.resid = 0

let move t ~src_or_dst ~data_off ~n =
  if n < 0 || n > t.resid then invalid_arg "Uio.move: bad length";
  (match t.rw with
  | Read -> Sim.Iov.blit_from_bytes src_or_dst data_off t.iov t.iov_off n
  | Write -> Sim.Iov.blit_to_bytes t.iov t.iov_off src_or_dst data_off n);
  t.off <- t.off + n;
  t.iov_off <- t.iov_off + n;
  t.resid <- t.resid - n
