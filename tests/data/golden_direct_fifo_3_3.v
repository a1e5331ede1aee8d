module pf_fifo_w4_d4(
  input clk,
  input rst,
  input en,
  input wr,
  input rd,
  input [3:0] din,
  output [3:0] dout,
  output full,
  output empty
);
  reg [3:0] mem [0:3];
  reg [1:0] rp, wp;
  reg [2:0] count;
  reg [3:0] dout_r;
  assign full = (count == 3'd4);
  assign empty = (count == 3'd0);
  assign dout = dout_r;
  always @(posedge clk) begin
    if (rst) begin
      rp <= 2'd0;
      wp <= 2'd0;
      count <= 3'd0;
      dout_r <= 4'd0;
    end else if (en) begin
      if (rd) begin
        dout_r <= mem[rp];
        rp <= (rp == 2'd3) ? 2'd0 : rp + 2'd1;
      end
      if (wr) begin
        mem[wp] <= din;
        wp <= (wp == 2'd3) ? 2'd0 : wp + 2'd1;
      end
      count <= count + (wr ? 3'd1 : 3'd0) - (rd ? 3'd1 : 3'd0);
    end
  end
endmodule

module run(
  input clk,
  input rst,
  input [7:0] x,
  input [7:0] y,
  input [3:0] e,
  output [15:0] z_out,
  output [3:0] e_out
);
  reg [15:0] mul__mulXY;
  reg [7:0] addA__sumXY;
  reg [7:0] addA__x;
  reg [7:0] addB__sum2XY;
  reg [15:0] merged_mul_mul__mulXY;
  wire [7:0] merged_mul_mul__sum2XY;
  reg [15:0] xor__z;
  wire [3:0] xor__e;
  wire [15:0] mul__mulXY__c;
  wire [7:0] addA__sumXY__c;
  wire [7:0] addB__sum2XY__c;
  wire [15:0] xor__z__c;
  reg [15:0] xor__z__d1;
  wire xor__e__full;
  wire xor__e__empty;
  wire xor__e__we;
  wire xor__e__re;
  reg [1:0] xor__e__read_start;
  wire xor__e__read_start_zero;
  assign mul__mulXY__c = x * y;
  always @(posedge clk) begin
    if (rst) mul__mulXY <= 16'd0;
    else mul__mulXY <= mul__mulXY__c;
  end
  assign addA__sumXY__c = x + y;
  always @(posedge clk) begin
    if (rst) addA__sumXY <= 8'd0;
    else addA__sumXY <= addA__sumXY__c;
  end
  always @(posedge clk) begin
    if (rst) addA__x <= 8'd0;
    else addA__x <= x;
  end
  assign addB__sum2XY__c = addA__sumXY + addA__x;
  always @(posedge clk) begin
    if (rst) addB__sum2XY <= 8'd0;
    else addB__sum2XY <= addB__sum2XY__c;
  end
  always @(posedge clk) begin
    if (rst) merged_mul_mul__mulXY <= 16'd0;
    else merged_mul_mul__mulXY <= mul__mulXY;
  end
  assign merged_mul_mul__sum2XY = addB__sum2XY;
  assign xor__z__c = merged_mul_mul__sum2XY ^ merged_mul_mul__mulXY;
  always @(posedge clk) begin
    if (rst) xor__z__d1 <= 16'd0;
    else xor__z__d1 <= xor__z__c;
  end
  always @(posedge clk) begin
    if (rst) xor__z <= 16'd0;
    else xor__z <= xor__z__d1;
  end
  assign xor__e__read_start_zero = (xor__e__read_start == 2'd0);
  always @(posedge clk) begin
    if (rst) xor__e__read_start <= 2'd3;
    else if (xor__e__read_start != 2'd0) xor__e__read_start <= xor__e__read_start - 2'd1;
  end
  assign xor__e__we = 1'd1;
  assign xor__e__re = xor__e__read_start_zero;
  pf_fifo_w4_d4 u_xor__e(.clk(clk), .rst(rst), .en(1'b1), .wr(xor__e__we), .rd(xor__e__re), .din(e), .dout(xor__e), .full(xor__e__full), .empty(xor__e__empty));
  assign z_out = xor__z;
  assign e_out = xor__e;
endmodule
