type t = {
  cgx : int;
  fbitmap : bytes;
  ibitmap : bytes;
  mutable nbfree : int;
  mutable nffree : int;
  mutable nifree : int;
  mutable ndirs : int;
  mutable rotor : int;
  mutable dirty : bool;
}

let cg_begin (sb : Superblock.t) c = c * sb.Superblock.fpg

let cg_end (sb : Superblock.t) c =
  min ((c + 1) * sb.Superblock.fpg) sb.Superblock.nfrags

let header_frag sb c =
  if c = 0 then Layout.bootblocks_frags else cg_begin sb c

let inode_area_frag sb c = header_frag sb c + Layout.fpb

let inode_area_frags (sb : Superblock.t) =
  sb.Superblock.ipg / Layout.inodes_per_block * Layout.fpb

let data_begin sb c = inode_area_frag sb c + inode_area_frags sb

let dinode_loc (sb : Superblock.t) inum =
  let c = Superblock.cg_of_inum sb inum in
  let idx = inum mod sb.Superblock.ipg in
  let byte = idx * Layout.dinode_bytes in
  (inode_area_frag sb c + (byte / Layout.fsize), byte mod Layout.fsize)

let nfrags_of sb c = cg_end sb c - cg_begin sb c

let create_empty (sb : Superblock.t) c =
  let nf = nfrags_of sb c in
  {
    cgx = c;
    fbitmap = Bytes.make ((nf + 7) / 8) '\000';
    ibitmap = Bytes.make ((sb.Superblock.ipg + 7) / 8) '\000';
    nbfree = 0;
    nffree = 0;
    nifree = 0;
    ndirs = 0;
    rotor = 0;
    dirty = true;
  }

(* header block layout: counts at 0..32, rotor at 32, inode bitmap at 64,
   frag bitmap right after *)
let encode t (_sb : Superblock.t) =
  let b = Bytes.make Layout.bsize '\000' in
  Codec.put_u32 b 0 t.cgx;
  Codec.put_u32 b 4 t.nbfree;
  Codec.put_u32 b 8 t.nffree;
  Codec.put_u32 b 12 t.nifree;
  Codec.put_u32 b 16 t.ndirs;
  Codec.put_u32 b 32 t.rotor;
  let ioff = 64 in
  let foff = ioff + Bytes.length t.ibitmap in
  if foff + Bytes.length t.fbitmap > Layout.bsize then
    invalid_arg "Cg.encode: bitmaps do not fit the header block";
  Bytes.blit t.ibitmap 0 b ioff (Bytes.length t.ibitmap);
  Bytes.blit t.fbitmap 0 b foff (Bytes.length t.fbitmap);
  b

let decode b (sb : Superblock.t) c =
  let t = create_empty sb c in
  let cgx = Codec.get_u32 b 0 in
  if cgx <> c then Vfs.Errno.raise_err Vfs.Errno.EINVAL "cg: wrong group index";
  t.nbfree <- Codec.get_u32 b 4;
  t.nffree <- Codec.get_u32 b 8;
  t.nifree <- Codec.get_u32 b 12;
  t.ndirs <- Codec.get_u32 b 16;
  t.rotor <- Codec.get_u32 b 32;
  let ioff = 64 in
  let foff = ioff + Bytes.length t.ibitmap in
  Bytes.blit b ioff t.ibitmap 0 (Bytes.length t.ibitmap);
  Bytes.blit b foff t.fbitmap 0 (Bytes.length t.fbitmap);
  t.dirty <- false;
  t

(* One bitmap byte per block: [fpg] is block-aligned (Superblock.create)
   and a group's data area starts on a block boundary, so local block k
   of a group is byte k of [fbitmap], bit i its fragment i.  The whole-
   block tests, the range setters and [recount] all read or write that
   byte at once. *)
let () =
  if Layout.fpb <> 8 then failwith "Cg: a block must be one bitmap byte (fpb = 8)"

let local t sb frag =
  let lo = cg_begin sb t.cgx and hi = cg_end sb t.cgx in
  if frag < lo || frag >= hi then
    invalid_arg
      (Printf.sprintf "Cg: frag %d outside group %d [%d,%d)" frag t.cgx lo hi);
  frag - lo

let get_bit bm i = Codec.get_u8 bm (i / 8) land (1 lsl (i mod 8)) <> 0

let set_bit bm i v =
  let byte = Codec.get_u8 bm (i / 8) in
  let mask = 1 lsl (i mod 8) in
  Codec.put_u8 bm (i / 8) (if v then byte lor mask else byte land lnot mask)

(* bits [lo, hi) of [bm]: whole bytes with one fill, the ragged edges
   bit by bit *)
let fill_bits bm lo hi v =
  let first = (lo + 7) / 8 and last = hi / 8 in
  if first >= last then
    for i = lo to hi - 1 do
      set_bit bm i v
    done
  else begin
    for i = lo to (first * 8) - 1 do
      set_bit bm i v
    done;
    Bytes.fill bm first (last - first) (if v then '\255' else '\000');
    for i = last * 8 to hi - 1 do
      set_bit bm i v
    done
  end

let popcount =
  String.init 256 (fun b ->
      let rec bits b = if b = 0 then 0 else (b land 1) + bits (b lsr 1) in
      Char.chr (bits b))

let ones byte = Char.code (String.unsafe_get popcount byte)

(* set bits among the first [n] of [bm] *)
let count_bits bm n =
  let c = ref 0 in
  for b = 0 to (n / 8) - 1 do
    c := !c + ones (Bytes.get_uint8 bm b)
  done;
  for i = n / 8 * 8 to n - 1 do
    if get_bit bm i then incr c
  done;
  !c

let frag_free t sb frag = get_bit t.fbitmap (local t sb frag)

let set_frag t sb frag ~free =
  set_bit t.fbitmap (local t sb frag) free;
  t.dirty <- true

let set_frags t sb ~lo ~hi ~free =
  if lo < hi then begin
    let l = local t sb lo in
    ignore (local t sb (hi - 1));
    fill_bits t.fbitmap l (l + hi - lo) free;
    t.dirty <- true
  end

let block_byte fn t sb frag =
  let l = local t sb frag in
  if l mod Layout.fpb <> 0 then invalid_arg (fn ^ ": not block-aligned");
  Bytes.get_uint8 t.fbitmap (l / 8)

let block_bits = block_byte "Cg.block_bits"
let block_free t sb frag = block_byte "Cg.block_free" t sb frag = 0xff

let free_frags_in_block t sb frag =
  ones (block_byte "Cg.free_frags_in_block" t sb frag)

let inode_free t idx = get_bit t.ibitmap idx

let set_inode t idx ~free =
  set_bit t.ibitmap idx free;
  t.dirty <- true

let set_inodes t ~lo ~hi ~free =
  if lo < hi then begin
    if lo < 0 || hi > 8 * Bytes.length t.ibitmap then
      invalid_arg (Printf.sprintf "Cg.set_inodes: [%d,%d) outside the map" lo hi);
    fill_bits t.ibitmap lo hi free;
    t.dirty <- true
  end

let recount t sb =
  let nf = nfrags_of sb t.cgx in
  let nbfree = ref 0 in
  for b = 0 to (nf / 8) - 1 do
    if Bytes.get_uint8 t.fbitmap b = 0xff then incr nbfree
  done;
  ( !nbfree,
    count_bits t.fbitmap nf - (Layout.fpb * !nbfree),
    count_bits t.ibitmap sb.Superblock.ipg )
